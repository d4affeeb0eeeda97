"""ribbonlab benchmark: run one workload in a closed loop and print its metrics.

    python3 bench/run.py --workload schur-monomial --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

One process per workload, a single client, no threads.  A job is a fixed
sequence of CLI commands (see ``workloads.py``), each run in-process through
``ribbonlab.cli.main(argv)`` on files in a work directory under
``bench/out``; jobs start until ``--seconds`` have passed.  The workload seed
is a benchmark argument: ribbonlab only ever sees the generated files and
argv.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time to import
  ``ribbonlab.cli`` and write the workload's seeded inputs;
* ``job_s.p50``: median wall time of a job (the ``main`` calls only);
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process;
* ``ok_ratio``: share of jobs whose every command returned the expected exit
  code, verdict and report values (``1 - failed_ratio``; the metric is
  stated this way round so that it is never zero).

It also prints ``job_s.tail``, the job time with exactly ten jobs beyond it
(the highest percentile that has ten samples above it, about p60-p78 at
36 s), with its percentile and job count, and ``failed_ratio``.  The tail is
not among the bounded metrics: on a shared 2-core machine its spread over
ten seeds reached 0.26, because a slow spell of the host covering a quarter
of a run moves it.

``--trace 1`` is a separate run with the same seed that wraps the library
from outside (``tracing.py``) and reports the per-layer metrics instead.  It
then re-runs its first jobs untraced and fails (``correct: false``) when a
traced output differs from the untraced one, or when a layer metric reads
zero on a workload that should move it.  Spans go to
``bench/out/trace-<workload>.{json,spans}``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_RUNS = 5       # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10     # jobs that must lie beyond the reported tail
COMPARE_JOBS = 4     # traced jobs re-run untraced and compared
CHILD_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_child(args) -> int:
    """Fresh-interpreter set-up: import the CLI, write the seeded inputs."""
    t0 = time.perf_counter()
    import ribbonlab.cli  # noqa: F401  (import time is part of set-up)

    workloads.prepare(args.workload, args.seed, args.setup_into)
    print(time.perf_counter() - t0)
    return 0


def _setup_seconds(args, workdir: Path) -> list:
    times = []
    for i in range(SETUP_RUNS):
        target = workdir / f"setup-{i}"
        target.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(target)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(target)
    return times


def _tail(times: list) -> tuple:
    """(value, percentile, jobs beyond) of the job time with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def _measure(args, stream, cli, jobdir: Path, tracer=None) -> list:
    """Closed loop: start jobs until the run's seconds are used up."""
    results = []
    deadline = time.perf_counter() + args.seconds
    while not results or time.perf_counter() < deadline:
        job = next(stream)
        if tracer is not None:
            tracer.begin_job(len(results))
        res = workloads.run_job(job, cli.main, str(jobdir))
        if tracer is not None:
            tracer.end_job()
        if res.problems:
            print(f"job {len(results)} ({job.label}) failed: {'; '.join(res.problems)}",
                  file=sys.stderr)
        results.append((job, res))
    return results


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _e2e(args, setup_times, results) -> tuple:
    times = [res.seconds for _job, res in results]
    failed = sum(1 for _job, res in results if res.problems)
    tail, pct, beyond = _tail(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "job_s.p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(times) - failed) / len(times),
    }
    print(f"{args.workload} seed {args.seed}: {len(times)} jobs, closed loop, one client")
    print(f"  setup_s      {values['setup_s']:.4f} s   (median of {len(setup_times)} "
          f"fresh interpreters)")
    print(f"  job_s.p50    {values['job_s.p50']:.4f} s")
    print(f"  job_s.tail   {tail:.4f} s   (p{pct:.0f} of {len(times)} jobs, {beyond} beyond)")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(f"  failed_ratio {failed / len(times):.4f} ratio ({failed} of {len(times)} jobs)")
    return {k: _metric(v, E2E_UNITS[k]) for k, v in values.items()}, failed, []


def _compare_untraced(args, inputs, cli, jobdir: Path, traced: list) -> tuple:
    """Re-run the first traced jobs untraced; return (problems, overhead_s)."""
    stream = workloads.jobs(args.workload, args.seed, inputs, str(jobdir))
    problems, deltas = [], []
    for i, (job, res) in enumerate(traced[:COMPARE_JOBS]):
        again = workloads.run_job(next(stream), cli.main, str(jobdir))
        if again.outputs != res.outputs:
            problems.append(f"traced job {i} ({job.label}) output differs from untraced")
        deltas.append(res.seconds - again.seconds)
    return problems, statistics.median(deltas)


def _layers(args, inputs, cli, jobdir: Path, tracer, results) -> tuple:
    n = len(results)
    totals = tracer.layer_totals()
    for job, res in results:
        for cmd, (_rc, stdout, _texts) in zip(job.commands, res.outputs):
            if cmd.argv[0] == "check":
                for key, count in json.loads(stdout)["tallies"].items():
                    totals[f"schur.tally_{key}"] = totals.get(f"schur.tally_{key}", 0) + count
    values = {name: totals.get(name, 0) / n for name in tracing.LAYER_UNITS}
    formed = totals.get("schur.products_formed", 0)
    values["schur.products_repeat_share"] = (
        1.0 - totals.get("schur.products_distinct", 0) / formed if formed else 0.0)
    coh_calls = totals["cohomology.ribbon_cohomology_calls"]
    values["cohomology.echelon_calls_per_cohomology"] = (
        totals["cohomology.echelon_calls_in_cohomology"] / coh_calls if coh_calls else 0.0)
    values["trace.job_s.p50"] = statistics.median(res.seconds for _job, res in results)
    problems, values["trace.overhead_s"] = _compare_untraced(args, inputs, cli, jobdir, results)
    problems += [f"layer metric {name} reads zero on {args.workload}"
                 for name in tracing.REQUIRED_NONZERO[args.workload] if not values[name]]
    failed = sum(1 for _job, res in results if res.problems)
    print(f"{args.workload} seed {args.seed}: {n} traced jobs, {tracer.spans()} spans")
    for name, unit in tracing.LAYER_UNITS.items():
        print(f"  {name:42s} {values[name]:.6g} {unit}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    metrics = {k: _metric(values[k], u) for k, u in tracing.LAYER_UNITS.items()}
    return metrics, failed, problems


def _run_all(args) -> int:
    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "ribbonlab" / "__init__.py").is_file():
        print(f"error: no ribbonlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RIBBONLAB_FIELD", None)  # the benchmark chooses every field itself
    if args.setup_into:
        return _setup_child(args)
    if args.workload == "all":
        return _run_all(args)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_times = [] if args.trace else _setup_seconds(args, workdir)
        import ribbonlab.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported ribbonlab from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        (workdir / "inputs").mkdir(parents=True)
        inputs = workloads.prepare(args.workload, args.seed, str(workdir / "inputs"))
        jobdir = workdir / "job"
        stream = workloads.jobs(args.workload, args.seed, inputs, str(jobdir))
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                results = _measure(args, stream, cli, jobdir, tracer)
            finally:
                patches.restore()
            metrics, failed, problems = _layers(args, inputs, cli, jobdir, tracer, results)
            tracer.write(str(OUT / f"trace-{args.workload}"),
                         {"workload": args.workload, "seed": args.seed, "jobs": len(results)})
        else:
            results = _measure(args, stream, cli, jobdir)
            metrics, failed, problems = _e2e(args, setup_times, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
