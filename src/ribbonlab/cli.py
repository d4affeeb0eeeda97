"""Command-line driver: build pairs, check them, and emit report files.

Exit codes: 0 pass, 1 fail, 2 inconclusive (a truncation shortfall surfaced,
or closure went unverified on level rows the witnesses do not span), 3 usage
or malformed input, so CI can tell a mathematical failure from a window that
was too small.  Each command takes only the field, window and bound it reads,
and every report embeds exactly those values as its "config", so any claim is
reproducible from the report alone.  A process builds one parser, on its first
``main`` call; later calls reuse it, so callers must treat it as read-only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cohomology import picard_dimension, ribbon_cohomology
from .errors import (ConfigError, DegreeBoundError, RangeViolationError,
                     RibbonlabError, TruncationBoundError,
                     UnsupportedDatumError, WindowTooSmallError)
from .geometry import (NODAL_CUBIC, P2_LINE, PROJECTIVE_KINDS, GeometricDatum,
                       NodalCubicRing, forward_krichever, make_datum,
                       noncoherent_chain, order_group)
from .local2d import Window2D
from .schur import SchurPair, check_schur_pair, hilbert_function, point_ideal_check
from .series import Field

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# the field, window and bound options; each command adds the ones it reads
_OPTIONS = {
    "--field": {"default": "Q", "help": "Q or Fp:<prime>"},
    "--t-lo": {"type": int, "default": -4},
    "--t-hi": {"type": int, "default": 4},
    "--u-lo": {"type": int, "default": -8},
    "--u-hi": {"type": int, "default": 8},
    "--margin-t": {"type": int, "default": 2},
    "--margin-u": {"type": int, "default": 2},
    "--bound": {"type": int, "default": 8, "help": "chart-degree truncation bound"},
}


def _add_options(parser: argparse.ArgumentParser, *names: str):
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


# the report text format: sorted keys, indented for reading (pair files are compact)
_report_text = functools.partial(json.dumps, sort_keys=True, indent=2)


def _write_json(path: str, obj: dict):
    _write_text(path, _report_text(obj))


def _load_pair(path: str) -> SchurPair:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return SchurPair.from_json(json.load(fh))
        except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
            raise ConfigError(f"malformed pair file {path}: {type(exc).__name__}: {exc}") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first ``main`` call; treat it as read-only."""
    top = argparse.ArgumentParser(prog="ribbonlab")
    sub = top.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a Schur pair from a built-in example")
    p_build.add_argument("example", help="|".join(PROJECTIVE_KINDS + (NODAL_CUBIC,)))
    p_build.add_argument("--twist", type=int, default=0)
    p_build.add_argument("--out", default="pair.json")
    _add_options(p_build, "--field", "--t-lo", "--t-hi", "--u-lo", "--u-hi",
                 "--margin-t", "--margin-u")
    p_build.set_defaults(run=_cmd_build)

    p_check = sub.add_parser("check", help="run the Schur-pair checks on a pair file")
    p_check.add_argument("pair")
    p_check.add_argument("--report", default=None, help="optional report file")
    p_check.set_defaults(run=_cmd_check)

    p_report = sub.add_parser("report", help="compute a report table")
    rsub = p_report.add_subparsers(dest="subcommand", required=True)

    p_h = rsub.add_parser("hilbert")
    p_h.add_argument("--pair", required=True)
    p_h.add_argument("--j", type=int, default=1)
    p_h.add_argument("--max-n", type=int, default=6)
    p_h.add_argument("--out", default="hilbert.json")
    p_h.set_defaults(run=_cmd_hilbert)

    p_c = rsub.add_parser("cohomology")
    p_c.add_argument("--twist", type=int, default=0)
    p_c.add_argument("--depth", type=int, default=2, help="truncation depth i of the stack")
    p_c.add_argument("--out", default="cohomology.json")
    _add_options(p_c, "--field", "--bound")
    p_c.set_defaults(run=_cmd_cohomology)

    p_p = rsub.add_parser("picard")
    p_p.add_argument("--max-i", type=int, default=5)
    p_p.add_argument("--out", default="picard.json")
    _add_options(p_p, "--field", "--bound")
    p_p.set_defaults(run=_cmd_picard)

    p_n = rsub.add_parser("demo-noncoherent")
    p_n.add_argument("--max-k", type=int, default=3)
    p_n.add_argument("--degree-bound", type=int, default=6)
    p_n.add_argument("--out", default="noncoherent.json")
    _add_options(p_n, "--field", "--t-lo", "--t-hi")
    p_n.set_defaults(run=_cmd_noncoherent)

    p_o = rsub.add_parser("order-group")
    p_o.add_argument("--example", required=True)
    p_o.add_argument("--out", default="order-group.json")
    _add_options(p_o, "--field", "--t-lo", "--t-hi", "--u-lo", "--u-hi")
    p_o.set_defaults(run=_cmd_order_group)
    return top


def _cmd_build(args) -> int:
    window = Window2D(args.t_lo, args.t_hi, args.u_lo, args.u_hi,
                      args.margin_t, args.margin_u)
    fld = Field.from_tag(args.field)
    pair = forward_krichever(make_datum(args.example, args.twist), window, fld)
    obj = pair.to_json()
    obj["config"] = {"field": fld.tag, "window": window.to_json()}
    _write_text(args.out, json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return EXIT_PASS


def _cmd_check(args) -> int:
    pair = _load_pair(args.pair)
    obj = check_schur_pair(pair)
    obj["config"] = {"field": pair.field.tag, "window": pair.window.to_json()}
    text = _report_text(obj)
    if args.report:
        _write_text(args.report, text)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: the verdict still sets the exit code, and
        # stdout goes to devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL,
            "inconclusive": EXIT_INCONCLUSIVE}[obj["verdict"]]


def _cmd_hilbert(args) -> int:
    pair = _load_pair(args.pair)
    # the point-ideal dims are the j = 1 table; any other j computes its table
    # first, so a bad --j is reported before a bad --max-n or window
    table = None
    if args.j != 1:
        table = [hilbert_function(pair.algebra, args.j, n) for n in range(args.max_n + 1)]
    point = point_ideal_check(pair.algebra, args.max_n)
    obj = {
        "j": args.j,
        "table": point["dims"] if table is None else table,
        "point_ideal": point,
        "config": {"field": pair.field.tag, "window": pair.window.to_json()},
    }
    _write_json(args.out, obj)
    return EXIT_PASS if point["pass"] else EXIT_FAIL


def _cmd_cohomology(args) -> int:
    fld = Field.from_tag(args.field)
    if args.depth < 0:
        raise RangeViolationError("truncation depth must be nonnegative")
    g = GeometricDatum(P2_LINE, args.twist)
    degrees = [g.level_bound(b, "W") for b in range(args.depth + 1)]
    obj = ribbon_cohomology(degrees, args.bound, fld)
    obj["config"] = {"field": fld.tag, "bound": args.bound}
    _write_json(args.out, obj)
    return EXIT_PASS


def _cmd_picard(args) -> int:
    fld = Field.from_tag(args.field)
    if args.max_i < 1:
        raise RangeViolationError("--max-i must be a positive integer")
    dims = []
    for i in range(1, args.max_i + 1):
        last = picard_dimension(GeometricDatum(P2_LINE), i, args.bound, fld)
        dims.append(last["dim"])
    obj = {"dims": dims, "d": last["d"], "levels": last["levels"],
           "config": {"field": fld.tag, "bound": args.bound}}
    _write_json(args.out, obj)
    # the graded Picard sum is exact only when every graded h0 vanishes
    return EXIT_PASS if last["h0_vanishing"] else EXIT_FAIL


def _cmd_noncoherent(args) -> int:
    t_lo, t_hi = args.t_lo, args.t_hi
    if t_lo >= t_hi:
        raise ConfigError("window bounds must satisfy t_lo < t_hi")
    fld = Field.from_tag(args.field)
    # widen a bound that falls short of the levels the chain needs; keep one that covers them
    t_lo, t_hi = min(t_lo, -args.max_k - 1), max(t_hi, 1)
    obj = noncoherent_chain(NodalCubicRing(args.degree_bound, fld), args.max_k, t_lo, t_hi)
    obj["config"] = {"field": fld.tag, "window": {"t_lo": t_lo, "t_hi": t_hi}}
    _write_json(args.out, obj)
    return EXIT_PASS


def _cmd_order_group(args) -> int:
    window = Window2D(args.t_lo, args.t_hi, args.u_lo, args.u_hi)
    fld = Field.from_tag(args.field)
    datum = make_datum(args.example)
    obj = order_group(datum, window, fld)
    obj["example"] = datum.meta()
    obj["config"] = {"field": fld.tag, "window": {
        "t_lo": window.t_lo, "t_hi": window.t_hi, "u_lo": window.u_lo, "u_hi": window.u_hi}}
    _write_json(args.out, obj)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.run(args)  # each leaf parser sets its handler as run
    except (WindowTooSmallError, TruncationBoundError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ConfigError, DegreeBoundError, UnsupportedDatumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RibbonlabError, KeyError, OSError, ValueError) as exc:
        print(f"error: malformed input or arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
