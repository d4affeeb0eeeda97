"""Measure the benchmark's baseline and its run-to-run spread.

    python3 bench/baseline.py --seeds 10 --out bench/BASELINE.json

For every workload: one untraced run per seed, then one traced run on the
first seed; the tracing overhead is the traced job median minus the median
of the untraced ones.  For each end-to-end metric it records the values, median,
quartiles (``statistics.quantiles(n=4)``) and spread, the distance between
the quartiles as a share of the median.  Runs go one after another, never in
parallel, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

NOTES = {
    "schur-monomial": [
        "Before this benchmark, 12-job runs of this job gave medians of 0.79-0.98 s per job "
        "on a shared 2-core machine; compare that range with the spread recorded here.",
    ],
    "schur-perturbed": [
        "Loading an F_p pair runs one _is_prime trial division per polynomial: "
        "LaurentPoly.from_json calls Field.from_tag, which builds a new Field each time. "
        "series.field_constructions counts them; schur.pair_load_s is their cost. "
        "The prime 2^31-1 is kept on purpose, a small prime would hide this.",
    ],
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = lines[:-1]
    return result


def _stats(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"machine": {"python": platform.python_version(), "platform": platform.platform(),
                          "cpus": os.cpu_count()},
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        ok = ok and all(r["correct"] for r in runs)
        e2e = {m["name"]: _stats([r["metrics"][m["name"]]["value"] for r in runs])
               for m in spec["end_to_end"]}
        tail_lines = [line.strip() for r in runs for line in r["summary"]
                      if line.strip().startswith("job_s.tail")]
        entry = {"end_to_end": e2e, "jobs": [r["attempted"] for r in runs],
                 "job_s.tail (printed, not bounded)": _stats(
                     [float(line.split()[1]) for line in tail_lines]),
                 "tail_lines": tail_lines}
        for m in spec["end_to_end"]:
            s = e2e[m["name"]]
            print(f"{workload:16s} {m['name']:12s} median {s['median']:.4f} {m['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {m['bound']})")
        s = entry["job_s.tail (printed, not bounded)"]
        print(f"{workload:16s} job_s.tail   median {s['median']:.4f} s     "
              f"spread {s['spread']:.4f} (not bounded)")
        traced = _run(workload, seeds[0], seconds, 1)
        ok = ok and traced["correct"]
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer"] = layers
        entry["tracing_overhead_s"] = layers["trace.job_s.p50"] - e2e["job_s.p50"]["median"]
        print(f"{workload:16s} traced p50 {layers['trace.job_s.p50']:.4f} s, overhead "
              f"{entry['tracing_overhead_s']:.4f} s, repeat share "
              f"{layers['schur.products_repeat_share']:.3f}")
        entry["notes"] = NOTES.get(workload, [])
        report["workloads"][workload] = entry
    report["all_correct"] = ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
