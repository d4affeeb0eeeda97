"""Command-line driver: build pairs, check them, and emit report files.

Exit codes: 0 pass, 1 fail, 2 inconclusive (a truncation shortfall surfaced),
3 usage or malformed input.  The split lets CI tell a genuine mathematical
failure apart from a window that was simply too small.  Every report embeds
the configuration it was computed with, so any claim is reproducible from the
report alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .cohomology import LevelStack, picard_dimension, ribbon_cohomology
from .errors import (ConfigError, DegreeBoundError, RangeViolationError,
                     RibbonlabError, TruncationBoundError,
                     UnsupportedDatumError, WindowTooSmallError)
from .geometry import (NODAL_CUBIC, P2_LINE, PROJECTIVE_KINDS, GeometricDatum,
                       NodalCubicRing, forward_krichever, make_datum,
                       noncoherent_chain, order_group)
from .local2d import Window2D
from .schur import SchurPair, check_schur_pair, hilbert_function, point_ideal_check
from .series import Field

FIELD_ENV = "RIBBONLAB_FIELD"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


@dataclass
class RunConfig:
    field: Field
    window: Window2D
    bound: int

    def to_json(self) -> dict:
        return {"field": self.field.tag, "window": self.window.to_json(),
                "bound": self.bound}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--field", default="Q", help="Q or Fp:<prime> (env %s overrides)" % FIELD_ENV)
    parser.add_argument("--t-lo", type=int, default=-4)
    parser.add_argument("--t-hi", type=int, default=4)
    parser.add_argument("--u-lo", type=int, default=-8)
    parser.add_argument("--u-hi", type=int, default=8)
    parser.add_argument("--margin-t", type=int, default=2)
    parser.add_argument("--margin-u", type=int, default=2)
    parser.add_argument("--bound", type=int, default=8, help="chart-degree truncation bound")


def _config(args) -> RunConfig:
    tag = os.environ.get(FIELD_ENV) or args.field
    window = Window2D(args.t_lo, args.t_hi, args.u_lo, args.u_hi,
                      args.margin_t, args.margin_u)
    return RunConfig(Field.from_tag(tag), window, args.bound)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _write_json(path: str, obj: dict):
    """Write a report: sorted keys, indented for reading (pair files are compact)."""
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2))


def _load_pair(path: str) -> SchurPair:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return SchurPair.from_json(json.load(fh))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"malformed pair file {path}: {type(exc).__name__}: {exc}") from None


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ribbonlab")
    sub = top.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a Schur pair from a built-in example")
    p_build.add_argument("example", help="|".join(PROJECTIVE_KINDS + (NODAL_CUBIC,)))
    p_build.add_argument("--twist", type=int, default=0)
    p_build.add_argument("--out", default="pair.json")
    _add_common(p_build)

    p_check = sub.add_parser("check", help="run the Schur-pair checks on a pair file")
    p_check.add_argument("pair")
    p_check.add_argument("--report", default=None, help="optional report file")

    p_report = sub.add_parser("report", help="compute a report table")
    rsub = p_report.add_subparsers(dest="subcommand", required=True)

    p_h = rsub.add_parser("hilbert")
    p_h.add_argument("--pair", required=True)
    p_h.add_argument("--j", type=int, default=1)
    p_h.add_argument("--max-n", type=int, default=6)
    p_h.add_argument("--out", default="hilbert.json")

    p_c = rsub.add_parser("cohomology")
    p_c.add_argument("--twist", type=int, default=0)
    p_c.add_argument("--depth", type=int, default=2, help="truncation depth i of the stack")
    p_c.add_argument("--out", default="cohomology.json")
    _add_common(p_c)

    p_p = rsub.add_parser("picard")
    p_p.add_argument("--max-i", type=int, default=5)
    p_p.add_argument("--out", default="picard.json")
    _add_common(p_p)

    p_n = rsub.add_parser("demo-noncoherent")
    p_n.add_argument("--max-k", type=int, default=3)
    p_n.add_argument("--degree-bound", type=int, default=6)
    p_n.add_argument("--out", default="noncoherent.json")
    _add_common(p_n)

    p_o = rsub.add_parser("order-group")
    p_o.add_argument("--example", required=True)
    p_o.add_argument("--twist", type=int, default=0)
    p_o.add_argument("--out", default="order-group.json")
    _add_common(p_o)
    return top


def _cmd_build(args) -> int:
    cfg = _config(args)
    datum = make_datum(args.example, args.twist)
    pair = forward_krichever(datum, cfg.window, cfg.field)
    obj = pair.to_json()
    obj["config"] = cfg.to_json()
    _write_text(args.out, json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return EXIT_PASS


def _cmd_check(args) -> int:
    pair = _load_pair(args.pair)
    report = check_schur_pair(pair)
    obj = report.to_json()
    obj["config"] = {"field": pair.field.tag, "window": pair.window.to_json()}
    text = json.dumps(obj, sort_keys=True, indent=2)
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
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]


def _cmd_hilbert(args) -> int:
    pair = _load_pair(args.pair)
    table = [hilbert_function(pair.algebra, args.j, n) for n in range(args.max_n + 1)]
    point = point_ideal_check(pair.algebra, min(args.max_n, -pair.window.u_lo))
    obj = {
        "j": args.j,
        "table": table,
        "point_ideal": point.to_json(),
        "config": {"field": pair.field.tag, "window": pair.window.to_json()},
    }
    _write_json(args.out, obj)
    return EXIT_PASS if point.ok else EXIT_FAIL


def _cmd_cohomology(args) -> int:
    cfg = _config(args)
    stack = LevelStack.for_p2_line(args.twist, args.depth)
    report = ribbon_cohomology(stack, cfg.bound, cfg.field)
    obj = report.to_json()
    obj["config"] = cfg.to_json()
    _write_json(args.out, obj)
    return EXIT_PASS


def _cmd_picard(args) -> int:
    cfg = _config(args)
    if args.max_i < 1:
        raise RangeViolationError("--max-i must be a positive integer")
    dims = []
    for i in range(1, args.max_i + 1):
        last = picard_dimension(GeometricDatum(P2_LINE), i, cfg.bound, cfg.field)
        dims.append(last.dim)
    obj = {"dims": dims, "d": last.d, "levels": last.levels, "config": cfg.to_json()}
    _write_json(args.out, obj)
    # the graded Picard sum is exact only when every graded h0 vanishes
    return EXIT_PASS if last.h0_vanishing else EXIT_FAIL


def _cmd_noncoherent(args) -> int:
    cfg = _config(args)
    window = cfg.window
    if window.t_lo > -args.max_k - 1 or window.t_hi < 1:
        # derive the minimal window the chain needs instead of failing on defaults
        window = Window2D(-args.max_k - 1, max(1, window.t_hi), window.u_lo,
                          window.u_hi, 0, 0)
    ring = NodalCubicRing(args.degree_bound, cfg.field)
    dims = noncoherent_chain(ring, args.max_k, window)
    obj = {
        "degree_bound": args.degree_bound,
        "dims": dims,
        "point_ideal_dim": ring.point_ideal_dim(),
        "point_ideal_sq_dim": ring.point_ideal_sq_dim(),
        "config": {"field": cfg.field.tag, "window": window.to_json()},
    }
    _write_json(args.out, obj)
    return EXIT_PASS


def _cmd_order_group(args) -> int:
    cfg = _config(args)
    datum = make_datum(args.example, args.twist)
    report = order_group(datum, cfg.window, cfg.field)
    obj = report.to_json()
    obj["example"] = datum.meta()
    obj["config"] = cfg.to_json()
    _write_json(args.out, obj)
    return EXIT_PASS


_REPORT_DISPATCH = {
    "hilbert": _cmd_hilbert,
    "cohomology": _cmd_cohomology,
    "picard": _cmd_picard,
    "demo-noncoherent": _cmd_noncoherent,
    "order-group": _cmd_order_group,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "check":
            return _cmd_check(args)
        return _REPORT_DISPATCH[args.subcommand](args)
    except (WindowTooSmallError, TruncationBoundError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ConfigError, DegreeBoundError, UnsupportedDatumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RibbonlabError, json.JSONDecodeError, KeyError, OSError, ValueError) as exc:
        print(f"error: malformed input or arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
