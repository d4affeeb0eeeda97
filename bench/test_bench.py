"""Tests of the benchmark itself: run with ``python -m pytest bench -q``."""

import dataclasses
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ribbonlab import cli  # noqa: E402


def _bytes(files):
    return [Path(pf.path).read_bytes() for pf in files]


def test_generator_is_deterministic_per_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = workloads.write_perturbed_pairs(7, str(dirs[0]), count=4)
    b = workloads.write_perturbed_pairs(7, str(dirs[1]), count=4)
    c = workloads.write_perturbed_pairs(8, str(dirs[2]), count=4)
    assert _bytes(a) == _bytes(b)
    assert [(pf.twist, pf.planted) for pf in a] == [(pf.twist, pf.planted) for pf in b]
    assert _bytes(a) != _bytes(c)
    assert sum(pf.planted is not None for pf in a) == 1
    assert sorted(pf.twist for pf in a) == list(workloads.PERTURBED_TWISTS)


def test_planted_file_exits_1_and_counts_as_success(tmp_path):
    files = workloads.write_perturbed_pairs(3, str(tmp_path), count=4)
    planted = next(pf for pf in files if pf.planted is not None)
    res = workloads.run_job(workloads.perturbed_job(planted), cli.main, str(tmp_path / "job"))
    assert res.problems == []
    rc, stdout, _files = res.outputs[0]
    assert rc == 1 and json.loads(stdout)["verdict"] == "fail"

    # the same file checked as if it were clean is a failed job
    clean = dataclasses.replace(planted, planted=None)
    res = workloads.run_job(workloads.perturbed_job(clean), cli.main, str(tmp_path / "job"))
    assert any("exited 1, expected 0" in p for p in res.problems)


def test_wrong_exit_code_raises_failed_ratio(tmp_path, capsys):
    job = workloads.cech_job(0, str(tmp_path / "job"))
    wrong = workloads.run_job(job, lambda argv: 2, str(tmp_path / "job"))
    assert wrong.problems == ["report exited 2, expected 0"]
    ok = workloads.JobResult(0.5, [], [])
    args = run._args(["--workload", "cech-stack", "--seed", "1", "--seconds", "1"])
    metrics, failed, _ = run._e2e(args, [0.1], [(job, ok), (job, wrong), (job, ok), (job, ok)])
    assert failed == 1
    assert metrics["ok_ratio"]["value"] == 0.75
    assert "failed_ratio 0.2500" in capsys.readouterr().out


def test_raising_command_fails_the_job(tmp_path):
    def boom(argv):
        raise ZeroDivisionError("1/0")

    res = workloads.run_job(workloads.cech_job(1, str(tmp_path / "job")), boom,
                            str(tmp_path / "job"))
    assert len(res.problems) == 1 and "raised ZeroDivisionError" in res.problems[0]


def test_tail_has_ten_jobs_beyond():
    value, pct, beyond = run._tail([float(i) for i in range(1, 31)])
    assert (value, round(pct), beyond) == (20.0, 67, 10)


def test_closed_forms():
    assert workloads.expected_cech(0, 20) == (1, 190)
    assert workloads.expected_cech(2, 20) == (6, 153)
    assert [workloads.expected_picard(i) for i in (1, 2, 10)] == [0, 1, 45]


def test_tracing_counts_spans_and_restores(tmp_path):
    tracer = tracing.Tracer()
    original = cli.picard_dimension
    patches = tracing.install(tracer)
    try:
        tracer.begin_job(0)
        out = tmp_path / "picard.json"
        assert cli.main(["report", "picard", "--max-i", "3", "--bound", "6",
                         "--out", str(out)]) == 0
        tracer.end_job()
    finally:
        patches.restore()
    assert cli.picard_dimension is original
    totals = tracer.layer_totals()
    assert totals["cli.calls"] == 1
    assert totals["cohomology.cech_line_bundle_calls"] == 6
    assert totals["linalg.echelon_calls"] == 6
    assert totals["cohomology.picard_s"] > 0 and totals["cli.self_s"] > 0
    tracer.write(str(tmp_path / "spans"), {"workload": "test"})
    meta, cols = tracing.load_spans(str(tmp_path / "spans"))
    assert meta["spans"] == tracer.spans() == len(cols["start"])
    assert list(cols["parent"]) == list(tracer.cols["parent"])


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
