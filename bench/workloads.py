"""The three benchmark workloads: seeded inputs, the CLI commands of one job,
and the values each job's outputs must show.

Every expected value here comes from a closed form (Riemann-Roch indices,
Hilbert polynomials, line-bundle cohomology on P^1), never from ribbonlab.
A job fails when a command raises, or returns an exit code, verdict or
report value other than the expected one.

Workload choice (later performance work names these):

* ``schur-monomial``: build, check and Hilbert-report a monomial (split)
  p2-line pair over Q at window half-width 8.  Witness products repeat
  heavily, so memoisation and membership work shows here.
* ``schur-perturbed``: check seeded non-monomial pairs over F_(2^31-1),
  one in four carrying a planted violation.  Products are almost all
  distinct, arithmetic takes the modular path, and loading a pair pays one
  primality test per polynomial (``Field.from_tag`` rebuilds the field).
  The large prime is deliberate: a small one would hide that cost.
* ``cech-stack``: cohomology of a depth-20 level stack and Picard
  dimensions.  Few bulk ``echelon`` calls on unit-vector columns; touches no
  ``schur``, ``fredholm`` or ``local2d`` code.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

WORKLOADS = ("schur-monomial", "schur-perturbed", "cech-stack")

# schur-monomial: the ROADMAP half-width h = 8 window
MONOMIAL_WINDOW = ("--t-lo", "-8", "--t-hi", "8", "--u-lo", "-16", "--u-hi", "16",
                   "--margin-t", "4", "--margin-u", "4")
MONOMIAL_TWISTS = (0, 1, 2, 3)
HILBERT_J = 2
HILBERT_MAX_N = 6

# schur-perturbed: h = 6 pairs over the largest prime field the library allows
PERTURBED_WINDOW = (-6, 6, -12, 12, 3, 3)  # t_lo, t_hi, u_lo, u_hi, m_t, m_u
PERTURBED_PRIME = 2 ** 31 - 1
PERTURBED_TWISTS = (0, 1, 2, 3)
PERTURBED_FILES = 32      # more than a 36-s run checks here; a longer run wraps around
PERTURBED_EXTRA_TERMS = 2
PLANTED_EVERY = 4

# cech-stack
CECH_TWISTS = (0, 1, 2)
CECH_DEPTH = 20
CECH_BOUND = 24
PICARD_MAX_I = 10
PICARD_BOUND = 14


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv, the exit code it must return, the files it
    writes, and a check of its stdout and parsed output files."""

    argv: tuple
    exit_code: int
    outputs: tuple = ()
    check: Optional[Callable[[str, dict], list]] = None


@dataclass(frozen=True)
class Job:
    label: str
    commands: tuple


@dataclass(frozen=True)
class PairFile:
    """A generated schur-perturbed input and what its check must report."""

    path: str
    twist: int
    planted: Optional[int]  # index of the A-witness carrying the planted term


@dataclass
class JobResult:
    seconds: float
    problems: list
    outputs: list  # per command: (exit code, stdout, texts of its output files)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def twist_sequence(rng: random.Random, twists: tuple) -> Iterator[int]:
    """Endless stream covering every twist once per block, in seeded order.

    Blocks keep the twist mix of a run independent of the seed, and no
    twist repeats across a block boundary, so consecutive jobs differ.
    """
    last = None
    while True:
        block = list(twists)
        rng.shuffle(block)
        if block[0] == last:
            block[0], block[-1] = block[-1], block[0]
        yield from block
        last = block[-1]


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def expected_index(b: int, twist: int) -> int:
    """Riemann-Roch: level b of the twist-m p2-line side has index m + 1 - b."""
    return twist + 1 - b


def expected_hilbert(n: int) -> int:
    """Levels 0 and 1 of A contribute n + 1 and n monomials of degree >= -n."""
    return 2 * n + 1


def expected_cech(twist: int, depth: int) -> tuple:
    """(h0, h1) of the level stack: sum over O(d), d = twist - j, on P^1."""
    ds = [twist - j for j in range(depth + 1)]
    return sum(max(0, d + 1) for d in ds), sum(max(0, -d - 1) for d in ds)


def expected_picard(i: int) -> int:
    """Sum of h1(O(-j)) = j - 1 over j = 1..i."""
    return i * (i - 1) // 2


def _check_levels(report: dict, twist: int, t_lo: int, t_hi: int, m_t: int) -> list:
    problems = []
    bs = [row["b"] for row in report["levels"]]
    if bs != list(range(t_lo + m_t, t_hi - m_t)):
        problems.append(f"levels cover {bs}")
    for row in report["levels"]:
        b = row["b"]
        if row["index_A"] != expected_index(b, 0):
            problems.append(f"index_A({b}) = {row['index_A']}, expected {expected_index(b, 0)}")
        if row["index_W"] != expected_index(b, twist):
            problems.append(f"index_W({b}) = {row['index_W']}, expected {expected_index(b, twist)}")
    return problems


def _check_verdict(report: dict, verdict: str) -> list:
    problems = []
    if report["verdict"] != verdict:
        problems.append(f"verdict {report['verdict']}, expected {verdict}")
    if verdict == "pass" and report["tallies"]["escaped"] != 0:
        problems.append(f"{report['tallies']['escaped']} products escaped")
    return problems


# --------------------------------------------------------------------------
# schur-monomial
# --------------------------------------------------------------------------

def monomial_job(twist: int, jobdir: str) -> Job:
    pair = os.path.join(jobdir, "pair.json")
    report = os.path.join(jobdir, "report.json")
    hilbert = os.path.join(jobdir, "hilbert.json")
    t_lo, t_hi, m_t = -8, 8, 4

    def check_report(stdout: str, files: dict) -> list:
        obj = files[report]
        problems = _check_verdict(obj, "pass") + _check_levels(obj, twist, t_lo, t_hi, m_t)
        if json.loads(stdout) != obj:
            problems.append("printed report differs from the report file")
        return problems

    def check_hilbert(stdout: str, files: dict) -> list:
        obj = files[hilbert]
        problems = []
        want = [expected_hilbert(n) for n in range(HILBERT_MAX_N + 1)]
        if obj["table"] != want:
            problems.append(f"hilbert table {obj['table']}, expected {want}")
        jumps = obj["point_ideal"]["jumps"]
        if jumps != [1] * HILBERT_MAX_N or obj["point_ideal"]["pass"] is not True:
            problems.append(f"point-ideal jumps {jumps}")
        return problems

    return Job(f"monomial m={twist}", (
        Command(("build", "p2-line", "--twist", str(twist), "--field", "Q", "--out", pair)
                + MONOMIAL_WINDOW, 0, (pair,)),
        Command(("check", pair, "--report", report), 0, (report,), check_report),
        Command(("report", "hilbert", "--pair", pair, "--j", str(HILBERT_J),
                 "--max-n", str(HILBERT_MAX_N), "--out", hilbert), 0, (hilbert,),
                check_hilbert),
    ))


# --------------------------------------------------------------------------
# schur-perturbed
# --------------------------------------------------------------------------

def _perturb(rng: random.Random, gens: list, limit: int, inner, planted: bool) -> tuple:
    """Give every monomial witness u^a t^b one or two extra terms c u^a' t^b'.

    The extra terms sit inside the interior with b < b' <= b + 2 (witnesses
    on the top interior level have no room and stay monomial) and stay on
    the witness's side (a' + b' <= limit), so levels and leading slices are
    unchanged and the pair stays a Schur pair.  With ``planted`` one witness
    also gets a term with a' + b' > limit at a trusted position; its index
    is returned.
    """
    out = []
    for vec in gens:
        (elem,) = vec
        ((a, b, c),) = elem["terms"]
        terms = {(a, b): c}
        top = min(b + 2, inner.t_hi - 1)
        for _ in range(rng.randint(1, PERTURBED_EXTRA_TERMS) if top > b else 0):
            b2 = rng.randint(b + 1, top)
            a2 = rng.randint(inner.u_lo, min(inner.u_hi - 1, limit - b2))
            terms.setdefault((a2, b2), str(rng.randint(1, PERTURBED_PRIME - 1)))
        out.append(terms)
    planted_at = None
    if planted:
        room = [i for i, terms in enumerate(out) if min(b for _a, b in terms) + 1 < inner.t_hi]
        planted_at = rng.choice(room)
        b = min(b for _a, b in out[planted_at])
        b2 = rng.randint(b + 1, min(b + 2, inner.t_hi - 1))
        a2 = rng.randint(max(inner.u_lo, limit - b2 + 1), inner.u_hi - 1)
        out[planted_at][(a2, b2)] = str(rng.randint(1, PERTURBED_PRIME - 1))
    vecs = [[{"component": 1,
              "terms": [[a, b, c] for (a, b), c in sorted(t.items(), key=lambda kv: kv[0][::-1])]}]
            for t in out]
    return vecs, planted_at


def write_perturbed_pairs(seed: int, outdir: str, count: int = PERTURBED_FILES) -> list:
    """Write ``count`` seeded pair files into ``outdir``; same seed, same bytes.

    Levels come from ``forward_krichever`` on the p2-line datum; only the
    witnesses are perturbed, in the pair JSON.
    """
    from ribbonlab import Field, Window2D, forward_krichever, make_datum

    rng = _rng("schur-perturbed", seed)
    window = Window2D(*PERTURBED_WINDOW)
    inner = window.interior()
    field = Field(PERTURBED_PRIME)
    bases = {m: forward_krichever(make_datum("p2-line", m), window, field).to_json()
             for m in PERTURBED_TWISTS}
    twists = twist_sequence(rng, PERTURBED_TWISTS)
    files = []
    for i in range(count):
        if i % PLANTED_EVERY == 0:
            planted_slot = i + rng.randrange(PLANTED_EVERY)
        m = next(twists)
        obj = copy.deepcopy(bases[m])
        obj["A"]["generators"], planted = _perturb(rng, obj["A"]["generators"], 0, inner,
                                                   i == planted_slot)
        obj["W"]["generators"], _ = _perturb(rng, obj["W"]["generators"], m, inner, False)
        path = os.path.join(outdir, f"pair-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        files.append(PairFile(path, m, planted))
    return files


def perturbed_job(pf: PairFile) -> Job:
    t_lo, t_hi, _u_lo, _u_hi, m_t, _m_u = PERTURBED_WINDOW

    def check_report(stdout: str, files: dict) -> list:
        obj = json.loads(stdout)
        problems = _check_levels(obj, pf.twist, t_lo, t_hi, m_t)
        if pf.planted is None:
            return problems + _check_verdict(obj, "pass")
        problems += _check_verdict(obj, "fail")
        label = f"A-generator #{pf.planted} fails membership"
        if label not in obj["failures"]:
            problems.append(f"failures do not name the planted witness ({label!r})")
        return problems

    kind = "clean" if pf.planted is None else f"planted A#{pf.planted}"
    return Job(f"perturbed {os.path.basename(pf.path)} m={pf.twist} {kind}", (
        Command(("check", pf.path), 0 if pf.planted is None else 1, (), check_report),
    ))


# --------------------------------------------------------------------------
# cech-stack
# --------------------------------------------------------------------------

def cech_job(twist: int, jobdir: str) -> Job:
    coh = os.path.join(jobdir, "cohomology.json")
    pic = os.path.join(jobdir, "picard.json")

    def check_cohomology(stdout: str, files: dict) -> list:
        obj = files[coh]
        h0, h1 = expected_cech(twist, CECH_DEPTH)
        problems = []
        if (obj["h0"], obj["h1"]) != (h0, h1):
            problems.append(f"(h0, h1) = ({obj['h0']}, {obj['h1']}), expected ({h0}, {h1})")
        if (obj["levelwise"]["h0"], obj["levelwise"]["h1"]) != (h0, h1):
            problems.append(f"levelwise {obj['levelwise']}, expected ({h0}, {h1})")
        ds = [lv["d"] for lv in obj["levels"]]
        if ds != [twist - j for j in range(CECH_DEPTH + 1)]:
            problems.append(f"level twists {ds}")
        if obj["agreement"] is not True or obj["transition_surjective"] is not True:
            problems.append("agreement/transition_surjective not true")
        return problems

    def check_picard(stdout: str, files: dict) -> list:
        dims = files[pic]["dims"]
        want = [expected_picard(i) for i in range(1, PICARD_MAX_I + 1)]
        return [] if dims == want else [f"picard dims {dims}, expected {want}"]

    return Job(f"cech T={twist}", (
        Command(("report", "cohomology", "--twist", str(twist), "--depth", str(CECH_DEPTH),
                 "--bound", str(CECH_BOUND), "--field", "Q", "--out", coh), 0, (coh,),
                check_cohomology),
        Command(("report", "picard", "--max-i", str(PICARD_MAX_I), "--bound", str(PICARD_BOUND),
                 "--field", "Q", "--out", pic), 0, (pic,), check_picard),
    ))


# --------------------------------------------------------------------------
# workload plumbing
# --------------------------------------------------------------------------

def prepare(workload: str, seed: int, inputdir: str) -> list:
    """Write the workload's seeded input files; returns what the jobs need."""
    if workload == "schur-perturbed":
        return write_perturbed_pairs(seed, inputdir)
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return []


def jobs(workload: str, seed: int, inputs: list, jobdir: str) -> Iterator[Job]:
    """Endless seeded job stream; the same seed gives the same jobs."""
    rng = _rng(workload, seed)
    if workload == "schur-monomial":
        for m in twist_sequence(rng, MONOMIAL_TWISTS):
            yield monomial_job(m, jobdir)
    elif workload == "schur-perturbed":
        # files are already in seeded order; a run longer than the file set wraps
        while True:
            for pf in inputs:
                yield perturbed_job(pf)
    else:
        for t in twist_sequence(rng, CECH_TWISTS):
            yield cech_job(t, jobdir)


def run_job(job: Job, main: Callable, jobdir: str) -> JobResult:
    """Run a job's commands in-process; only the ``main`` calls are timed."""
    shutil.rmtree(jobdir, ignore_errors=True)
    os.makedirs(jobdir)
    seconds = 0.0
    problems: list = []
    outputs: list = []
    for cmd in job.commands:
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = main(list(cmd.argv))
        except Exception as exc:  # a raising command fails the job; the run goes on
            seconds += time.perf_counter() - t0
            traceback.print_exc()
            problems.append(f"{cmd.argv[0]} raised {exc!r}")
            break
        seconds += time.perf_counter() - t0
        if rc != cmd.exit_code:
            outputs.append((rc, sink.getvalue(), {}))
            problems.append(f"{cmd.argv[0]} exited {rc}, expected {cmd.exit_code}")
            break
        try:
            texts = {}
            for path in cmd.outputs:
                with open(path, "r", encoding="utf-8") as fh:
                    texts[path] = fh.read()
            outputs.append((rc, sink.getvalue(), texts))
            if cmd.check is not None:
                parsed = {path: json.loads(text) for path, text in texts.items()}
                problems.extend(cmd.check(sink.getvalue(), parsed))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{cmd.argv[0]} output unreadable: {exc!r}")
            break
    return JobResult(seconds, problems, outputs)
