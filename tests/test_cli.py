import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import pair_equal_in_window
from ribbonlab import cli
from ribbonlab.cli import _parser, main
from ribbonlab.geometry import NodalCubicRing, noncoherent_chain
from ribbonlab.schur import SchurPair


def run(*argv):
    return main(list(argv))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def pair_path(tmp_path):
    out = tmp_path / "pair.json"
    assert run("build", "p2-line", "--twist", "2", "--out", str(out)) == 0
    return out


def test_build_writes_pair_with_config(pair_path):
    obj = load(pair_path)
    assert obj["meta"]["kind"] == "p2-line" and obj["meta"]["twist"] == 2
    assert obj["config"]["window"]["t_hi"] == 4
    assert obj["field"] == "Q"


def test_check_built_pair_passes(pair_path, capsys, tmp_path):
    report = tmp_path / "report.json"
    assert run("check", str(pair_path), "--report", str(report)) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["verdict"] == "pass"
    assert load(report)["verdict"] == "pass"


def test_check_injected_generator_fails(pair_path, tmp_path, capsys):
    obj = load(pair_path)
    obj["A"]["generators"].append(
        [{"terms": [[1, 0, "1/1"]], "component": 1}])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run("check", str(bad)) == 1


def test_check_zero_margin_inconclusive(tmp_path, capsys):
    out = tmp_path / "p0.json"
    assert run("build", "p2-line", "--margin-t", "0", "--margin-u", "0",
               "--out", str(out)) == 0
    assert run("check", str(out)) == 2


def test_build_nodal_cubic_rejected(tmp_path, capsys):
    assert run("build", "nodal-cubic", "--out", str(tmp_path / "x.json")) == 3
    assert "projective" in capsys.readouterr().err


def test_build_invalid_window(tmp_path):
    assert run("build", "p2-line", "--t-lo", "5", "--t-hi", "4",
               "--out", str(tmp_path / "x.json")) == 3


def test_check_malformed_input(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    assert run("check", str(bad)) == 3
    assert run("check", str(tmp_path / "missing.json")) == 3


def test_check_zero_denominator_coefficient(pair_path, tmp_path, capsys):
    obj = load(pair_path)
    obj["A"]["generators"][0][0]["terms"][0][2] = "1/0"
    bad = tmp_path / "zero-den.json"
    bad.write_text(json.dumps(obj))
    assert run("check", str(bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero denominator" in err
    assert err.count("\n") == 1


def test_check_fp_denominator_divisible_by_p(tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert run("build", "p2-line", "--field", "Fp:7", "--out", str(out)) == 0
    obj = load(out)
    obj["A"]["generators"][0][0]["terms"][0][2] = "1/7"
    bad = tmp_path / "den-7.json"
    bad.write_text(json.dumps(obj))
    assert run("check", str(bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1/7" in err and "divisible by 7" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["pair", "poly"])
@pytest.mark.parametrize("tag", [5, ["Q"]], ids=["int", "list"])
def test_check_non_string_field_tag(pair_path, tmp_path, capsys, where, tag):
    obj = load(pair_path)
    if where == "pair":
        obj["field"] = tag
    else:
        obj["A"]["levels"][0]["space"]["rows"][0][0]["field"] = tag
    bad = tmp_path / "field-tag.json"
    bad.write_text(json.dumps(obj))
    assert run("check", str(bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "field tag" in err
    assert err.count("\n") == 1


def test_roundtrip_pair_equality(pair_path):
    pair = SchurPair.from_json(load(pair_path))
    again = SchurPair.from_json(json.loads(json.dumps(pair.to_json())))
    assert pair_equal_in_window(pair, again)


def test_report_hilbert(pair_path, tmp_path):
    out = tmp_path / "h.json"
    assert run("report", "hilbert", "--pair", str(pair_path), "--j", "2",
               "--max-n", "4", "--out", str(out)) == 0
    obj = load(out)
    assert obj["table"] == [1, 3, 5, 7, 9]
    assert obj["point_ideal"]["pass"] is True
    assert "window" in obj["config"]


def test_report_hilbert_j1_computes_each_dim_once(pair_path, tmp_path, monkeypatch):
    # the j = 1 table is the point ideal's dims; count lookups through cli and schur
    import ribbonlab.cli as cli
    import ribbonlab.schur as schur

    calls = []
    real = schur.hilbert_function

    def hilbert_function(L, j, n):
        calls.append((j, n))
        return real(L, j, n)

    for owner in (cli, schur):
        monkeypatch.setattr(owner, "hilbert_function", hilbert_function)
    out = tmp_path / "h.json"
    assert run("report", "hilbert", "--pair", str(pair_path), "--j", "1",
               "--max-n", "6", "--out", str(out)) == 0
    assert sorted(calls) == [(1, n) for n in range(7)]
    assert load(out)["table"] == load(out)["point_ideal"]["dims"] == list(range(1, 8))


def test_report_hilbert_point_ideal_failure_exits_1(pair_path, tmp_path):
    obj = load(pair_path)
    level0 = next(e for e in obj["A"]["levels"] if e["b"] == 0)["space"]
    # drop the row u^-1, so the degree-1 jump of the point ideal is 0
    level0["rows"] = [vec for vec in level0["rows"] if vec[0]["coeffs"][0][0] != -1]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(obj))
    out = tmp_path / "h.json"
    assert run("report", "hilbert", "--pair", str(gap), "--max-n", "4",
               "--out", str(out)) == 1
    point = load(out)["point_ideal"]
    assert point["pass"] is False and point["jumps"] == [0, 1, 1, 1]


def test_build_writes_compact_pair(pair_path):
    text = pair_path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert text == json.dumps(load(pair_path), sort_keys=True, separators=(",", ":")) + "\n"


def test_report_picard(tmp_path):
    out = tmp_path / "p.json"
    assert run("report", "picard", "--max-i", "5", "--out", str(out)) == 0
    obj = load(out)
    assert obj["dims"] == [0, 1, 3, 6, 10]
    assert obj["d"] == -1


def test_report_picard_nonvanishing_h0_exits_1(tmp_path, monkeypatch):
    import ribbonlab.cohomology as cohomology

    real = cohomology.cech_line_bundle

    def with_h0(d, B, fld):
        h0, h1 = real(d, B, fld)
        return h0 + 1, h1

    monkeypatch.setattr(cohomology, "cech_line_bundle", with_h0)
    out = tmp_path / "p.json"
    assert run("report", "picard", "--max-i", "3", "--out", str(out)) == 1
    assert [lv["h0"] for lv in load(out)["levels"]] == [1, 1, 1]


def usage_error(capsys, *argv):
    """Exit code of a run, after checking its stderr is one error: line."""
    rc = run(*argv)
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return rc


def test_report_hilbert_negative_max_n(pair_path, tmp_path, capsys):
    assert usage_error(capsys, "report", "hilbert", "--pair", str(pair_path),
                       "--max-n", "-1", "--out", str(tmp_path / "h.json")) == 3


def test_report_cohomology_negative_depth(tmp_path, capsys):
    assert usage_error(capsys, "report", "cohomology", "--depth", "-1",
                       "--out", str(tmp_path / "c.json")) == 3


@pytest.mark.parametrize("tag", ["Fp:9", "R"])
def test_report_cohomology_unknown_field_exits_3(tmp_path, capsys, tag):
    # 9 is no prime; R is no field tag at all
    assert usage_error(capsys, "report", "cohomology", "--field", tag,
                       "--out", str(tmp_path / "c.json")) == 3
    assert not (tmp_path / "c.json").exists()


def test_report_picard_max_i_zero(tmp_path, capsys):
    assert usage_error(capsys, "report", "picard", "--max-i", "0",
                       "--out", str(tmp_path / "p.json")) == 3
    assert not (tmp_path / "p.json").exists()


def test_report_noncoherent(tmp_path):
    out = tmp_path / "n.json"
    assert run("report", "demo-noncoherent", "--max-k", "3", "--degree-bound", "6",
               "--out", str(out)) == 0
    dims = load(out)["dims"]
    assert dims == sorted(dims) and len(set(dims)) == 3


def test_report_noncoherent_ranks_each_ideal_once(tmp_path, monkeypatch):
    # J_Q and J_Q^2 are ranked once each, at two ranks apiece: total and excess degree
    import ribbonlab._linalg as _linalg

    windows, ranks = [], []
    real_window, real_rank = NodalCubicRing._ideal_window_dim, _linalg.rank

    def window_dim(ring, gens):
        windows.append(gens)
        return real_window(ring, gens)

    def rank(rows):
        ranks.append(rows)
        return real_rank(rows)

    monkeypatch.setattr(NodalCubicRing, "_ideal_window_dim", window_dim)
    monkeypatch.setattr(_linalg, "rank", rank)
    assert run("report", "demo-noncoherent", "--out", str(tmp_path / "n.json")) == 0
    assert (len(windows), len(ranks)) == (2, 4)


def test_report_noncoherent_widens_only_the_short_bound(tmp_path):
    # t_lo -8 already covers -max_k - 1 = -4; only t_hi -2 falls short of 1
    out = tmp_path / "n.json"
    assert run("report", "demo-noncoherent", "--max-k", "3", "--degree-bound", "6",
               "--t-lo", "-8", "--t-hi", "-2", "--out", str(out)) == 0
    rep = load(out)
    assert rep["config"]["window"] == {"t_lo": -8, "t_hi": 1}
    assert rep["dims"] == noncoherent_chain(NodalCubicRing(6), 3, -8, 1)["dims"]


@pytest.mark.parametrize("command", [("order-group", "--example", "p2-line"),
                                     ("demo-noncoherent",)], ids=["order-group", "noncoherent"])
def test_report_invalid_t_range(tmp_path, capsys, command):
    assert usage_error(capsys, "report", *command, "--t-lo", "5", "--t-hi", "4",
                       "--out", str(tmp_path / "r.json")) == 3


def test_report_noncoherent_bad_degree(tmp_path):
    assert run("report", "demo-noncoherent", "--max-k", "2", "--degree-bound", "1",
               "--out", str(tmp_path / "n.json")) == 3


def test_report_order_group(tmp_path):
    expected = {"p2-line": 1, "even-variant": 2, "nilpotent": 0}
    for kind, d in expected.items():
        out = tmp_path / f"og-{kind}.json"
        assert run("report", "order-group", "--example", kind, "--out", str(out)) == 0
        assert load(out)["d"] == d
    assert load(tmp_path / "og-even-variant.json")["example"]["synthetic"] is True


def test_report_cohomology(tmp_path):
    out = tmp_path / "c.json"
    assert run("report", "cohomology", "--twist", "0", "--depth", "5",
               "--out", str(out)) == 0
    obj = load(out)
    assert (obj["h0"], obj["h1"]) == (1, 10)
    assert obj["agreement"] and obj["transition_surjective"]


def test_report_cohomology_bound_shortfall(tmp_path):
    assert run("report", "cohomology", "--depth", "7", "--bound", "8",
               "--out", str(tmp_path / "c.json")) == 2


def test_field_comes_from_the_flag_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("RIBBONLAB_FIELD", "Fp:7")
    for flags, tag in (((), "Q"), (("--field", "Q"), "Q"), (("--field", "Fp:5"), "Fp:5")):
        out = tmp_path / "pair.json"
        assert run("build", "p2-line", *flags, "--out", str(out)) == 0
        assert load(out)["field"] == tag


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "pair.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ribbonlab.cli", "build", "p2-line", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0 and out.exists()


def test_check_exit_code_survives_a_closed_stdout(tmp_path):
    # W with no rows fails every level; its report is far larger than a pipe
    # buffer, so printing it runs into the pipe the reader closed
    out = tmp_path / "pair.json"
    assert run("build", "p2-line", "--t-lo", "-8", "--t-hi", "8", "--u-lo", "-16", "--u-hi", "16",
               "--margin-t", "4", "--margin-u", "4", "--out", str(out)) == 0
    obj = load(out)
    for entry in obj["W"]["levels"]:
        entry["space"]["rows"] = []
    bad = tmp_path / "empty-w.json"
    bad.write_text(json.dumps(obj))
    with subprocess.Popen([sys.executable, "-m", "ribbonlab.cli", "check", str(bad)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("command", [("check",), ("report", "hilbert", "--pair")],
                         ids=["check", "hilbert"])
def test_deeply_nested_pair_file_exits_3(tmp_path, command):
    # json.load runs out of recursion depth on such a file: that is malformed
    # input, not a failing check, and a real process prints no traceback
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "h.json"
    proc = subprocess.run([sys.executable, "-m", "ribbonlab.cli", *command, str(bad),
                           *(["--out", str(out)] if command[0] == "report" else [])],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: malformed pair file") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_exit_codes_deterministic(pair_path, capsys):
    assert run("check", str(pair_path)) == run("check", str(pair_path))


def test_later_calls_build_no_parser(pair_path, tmp_path, monkeypatch, capsys):
    # pair_path's build call is the warm-up; each command then runs once
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    pair, out = str(pair_path), str(tmp_path / "out.json")
    for argv in (("build", "p2-line", "--out", str(tmp_path / "p.json")), ("check", pair),
                 ("report", "hilbert", "--pair", pair, "--out", out),
                 ("report", "cohomology", "--out", out), ("report", "picard", "--out", out),
                 ("report", "demo-noncoherent", "--out", out),
                 ("report", "order-group", "--example", "p2-line", "--out", out)):
        assert run(*argv) == 0
    assert built == []


def test_calls_in_one_process_stay_independent(tmp_path, capsys):
    out, pair = tmp_path / "out.json", tmp_path / "pair.json"
    assert run("report", "picard", "--max-i", "3", "--bound", "10", "--out", str(out)) == 0
    assert run("report", "picard", "--out", str(out)) == 0
    rep = load(out)
    assert len(rep["dims"]) == 5 and rep["config"]["bound"] == 8
    # a usage error leaves nothing behind for the next call
    assert run("report", "cohomology", "--depth", "x", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: ribbonlab report cohomology ")
    assert err.endswith("ribbonlab report cohomology: error: argument --depth: "
                        "invalid int value: 'x'\n")
    assert run("report", "cohomology", "--out", str(out)) == 0
    assert run("--help") == 0
    assert capsys.readouterr().out.startswith("usage: ribbonlab [-h] {build,check,report}")
    assert run("report", "picard", "--help") == 0
    assert capsys.readouterr().out.startswith("usage: ribbonlab report picard [-h]")
    assert run("build", "p2-line", "--twist", "1", "--out", str(pair)) == 0
    assert run("check", str(pair)) == 0
    fresh = subprocess.run([sys.executable, "-m", "ribbonlab.cli", "check", str(pair)],
                           capture_output=True, text=True)
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout


def test_roundtrip_all_projective_kinds(tmp_path):
    for kind in ("p2-line", "even-variant", "nilpotent"):
        out = tmp_path / f"{kind}.json"
        assert run("build", kind, "--out", str(out)) == 0
        pair = SchurPair.from_json(load(out))
        again = SchurPair.from_json(json.loads(json.dumps(pair.to_json())))
        assert pair_equal_in_window(pair, again)


def test_report_hilbert_refuses_a_margin_pivot(tmp_path, capsys):
    # a row u^7 at A's level 0 is a pivot in the default window's top
    # u-margin [6, 8): check and report hilbert both exit 2 on it
    pair = tmp_path / "pair.json"
    assert run("build", "p2-line", "--out", str(pair)) == 0
    obj = load(pair)
    level0 = next(e["space"] for e in obj["A"]["levels"] if e["b"] == 0)
    level0["rows"].append([{"coeffs": [[7, "1/1"]]}])
    bad = tmp_path / "margin-pivot.json"
    bad.write_text(json.dumps(obj))
    assert run("check", str(bad)) == 2
    capsys.readouterr()
    out = tmp_path / "h.json"
    assert run("report", "hilbert", "--pair", str(bad), "--j", "1", "--max-n", "6",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("inconclusive:") and err.count("\n") == 1
    assert not out.exists()


def test_report_hilbert_window_shortfall(pair_path, tmp_path):
    # depth beyond the pair's t-window, or n past its u-window (u_lo = -8),
    # is a truncation shortfall, not usage, and writes no report
    out = tmp_path / "h.json"
    for flags in (("--j", "6", "--max-n", "2"), ("--max-n", "9")):
        assert run("report", "hilbert", "--pair", str(pair_path), *flags, "--out", str(out)) == 2
        assert not out.exists()


def test_check_rejects_inconsistent_levels(pair_path, tmp_path):
    obj = load(pair_path)
    obj["A"]["levels"][0]["space"]["u_lo"] = -6  # no longer matches the window
    bad = tmp_path / "inconsistent.json"
    bad.write_text(json.dumps(obj))
    assert run("check", str(bad)) == 3


def set_path(obj, path, value):
    """Copy of a JSON tree with the value at ``path`` (a key/index list) replaced."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


A_GEN = ["A", "generators", 0]
A_ROW = ["A", "levels", 0, "space", "rows"]
MALFORMED = [
    (["window", "t_lo"], "a"), (["window", "u_hi"], None), (["window", "m_u"], [1]),
    (["A"], [1]), (["A", "levels"], 5), (A_ROW, 3), ([], [1]),
    (A_GEN + [0, "terms", 0, 2], [1]), (A_GEN + [0, "terms", 0, 2], None),
    (A_GEN + [0, "terms", 0, 2], {}), (["meta"], [1]), (["window", "m_t"], 0.5),
    (["W", "levels", 1, "space", "u_lo"], "no"), (A_GEN, 5), (A_GEN, []),
]


@pytest.mark.parametrize("path,value", MALFORMED, ids=lambda v: json.dumps(v))
def test_check_malformed_pair_exits_3(pair_path, tmp_path, capsys, path, value):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(set_path(load(pair_path), path, value)))
    assert usage_error(capsys, "check", str(bad)) == 3


def empty_level(side, b):
    """Copy of the level-b entry of a pair side, with its rows removed."""
    entry = json.loads(json.dumps(next(e for e in side["levels"] if e["b"] == b)))
    entry["space"]["rows"] = []
    return entry


def set_rank(side, r):
    """Give a pair side rank r on the side and on every level, with no rows or witnesses."""
    side.update(r=r, generators=[])
    for entry in side["levels"]:
        entry["space"].update(r=r, rows=[])


def set_level_field(side, b, tag):
    """Tag every polynomial in the level-b rows of a pair side with the field ``tag``."""
    for vec in next(e for e in side["levels"] if e["b"] == b)["space"]["rows"]:
        for poly in vec:
            poly["field"] = tag


# each level b of the window appears exactly once, and r >= 1: otherwise a
# second copy of a level, or one outside the window, would be dropped
# unread, and r would scale the index of an empty side; a level polynomial
# over another field, or a witness component away from its position, was
# once loaded as it stood
SIDE_EDITS = {
    "level-repeated-last": lambda W: W["levels"].append(empty_level(W, 0)),
    "level-repeated-first": lambda W: W["levels"].insert(0, empty_level(W, 0)),
    "level-outside-window": lambda W: W["levels"].append(dict(empty_level(W, 0), b=100)),
    "level-missing": lambda W: W["levels"].remove(next(e for e in W["levels"] if e["b"] == 0)),
    "rank-minus-one": lambda W: set_rank(W, -1),
    "rank-zero": lambda W: set_rank(W, 0),
    "level-field-mismatch": lambda W: set_level_field(W, 3, "Fp:7"),
    "witness-component-wrong": lambda W: W["generators"][0][0].update(component=5),
}


@pytest.mark.parametrize("edit", SIDE_EDITS)
def test_check_malformed_side_exits_3(tmp_path, capsys, edit):
    out = tmp_path / "pair.json"
    assert run("build", "p2-line", "--out", str(out)) == 0
    obj = load(out)
    SIDE_EDITS[edit](obj["W"])
    bad = tmp_path / f"{edit}.json"
    bad.write_text(json.dumps(obj))
    assert usage_error(capsys, "check", str(bad)) == 3


def test_check_rank_two_subalgebra_exits_3(tmp_path, capsys):
    out = tmp_path / "pair.json"
    assert run("build", "p2-line", "--out", str(out)) == 0
    obj = load(out)
    set_rank(obj["A"], 2)
    bad = tmp_path / "rank-two-A.json"
    bad.write_text(json.dumps(obj))
    assert run("check", str(bad)) == 3
    assert capsys.readouterr().err == "error: the subalgebra side of a pair must have rank 1\n"


A_LEVEL = ["A", "levels", 0, "space"]
MISTYPED = [
    (A_GEN + [0, "terms", 0, 0], 0.5), (A_GEN + [0, "terms", 0, 0], "1"),
    (A_LEVEL + ["rows", 0, 0, "coeffs", 0, 0], True), (A_LEVEL + ["u_lo"], -8.0),
    (A_LEVEL + ["full_below"], "no"), (["meta"], ["ab"]),
    (A_GEN + [0, "terms"], [[0, 0, "1"], [0, 0, "-1"]]),
    (A_LEVEL + ["rows", 0, 0, "coeffs"], [[0, "1"], [0, "1"]]),
]


@pytest.mark.parametrize("path,value", MISTYPED, ids=lambda v: json.dumps(v))
def test_check_mistyped_pair_exits_3(pair_path, tmp_path, capsys, path, value):
    # each value has a JSON type that int(), == or dict() would once have let through,
    # or repeats an exponent whose last copy the loader once silently kept
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(set_path(load(pair_path), path, value)))
    assert usage_error(capsys, "check", str(bad)) == 3


def test_malformed_pair_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "top-level-list.json"
    bad.write_text("[1]")
    assert run("check", str(bad)) == 3
    assert capsys.readouterr().err.startswith(f"error: malformed pair file {bad}: TypeError")


@pytest.mark.parametrize("field,value", [("Fp:7", 0.5), ("Fp:7", 1.5), ("Q", 0.1)])
def test_check_float_coefficient_exits_3(tmp_path, capsys, field, value):
    out = tmp_path / "pair.json"
    assert run("build", "p2-line", "--field", field, "--out", str(out)) == 0
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps(set_path(load(out), A_GEN + [0, "terms", 0, 2], value)))
    assert usage_error(capsys, "check", str(bad)) == 3


SMALL_WINDOW = ("--t-lo", "-2", "--t-hi", "2", "--u-lo", "-3", "--u-hi", "3",
                "--margin-t", "1", "--margin-u", "1")


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "pair.json"
    assert run("build", "p2-line", "--out", str(path), *SMALL_WINDOW) == 0
    return load(path), path.parent


def value_paths(obj, path=()):
    yield list(path)
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from value_paths(child, path + (key,))


SMALL_INTS = st.integers(-3, 3)
OTHER_JSON = {
    "null": st.none(), "bool": st.booleans(),
    "number": st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=4),
    "list": st.lists(SMALL_INTS | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), SMALL_INTS, max_size=2),
}


def json_type(value):
    return {type(None): "null", bool: "bool", int: "number", float: "number", str: "str",
            list: "list", dict: "object"}[type(value)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_pair_never_raises(small_pair, data):
    obj, tmp = small_pair
    path = data.draw(st.sampled_from(list(value_paths(obj))))
    old = obj
    for key in path:
        old = old[key]
    kind = data.draw(st.sampled_from(sorted(set(OTHER_JSON) - {json_type(old)})))
    # fresh names: overwriting an existing file is far slower than creating one on some filesystems
    fd, bad = tempfile.mkstemp(suffix=".json", dir=tmp)
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(set_path(obj, path, data.draw(OTHER_JSON[kind]))))
    for argv in (["check", bad],
                 ["report", "hilbert", "--pair", bad, "--max-n", "2",
                  "--out", bad + ".h.json"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1


WINDOW_FLAGS = {"--t-lo", "--t-hi", "--u-lo", "--u-hi", "--margin-t", "--margin-u"}
SURFACE = {
    "build": {"example", "--twist", "--out", "--field"} | WINDOW_FLAGS,
    "check": {"pair", "--report"},
    "report hilbert": {"--pair", "--j", "--max-n", "--out"},
    "report cohomology": {"--twist", "--depth", "--out", "--field", "--bound"},
    "report picard": {"--max-i", "--out", "--field", "--bound"},
    "report demo-noncoherent": {"--max-k", "--degree-bound", "--out", "--field",
                                "--t-lo", "--t-hi"},
    "report order-group": {"--example", "--out", "--field", "--t-lo", "--t-hi",
                           "--u-lo", "--u-hi"},
}


def leaves(parser, prefix=""):
    """(command name, its parser) for each leaf command."""
    sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if sub is None:
        yield prefix.strip(), parser
        return
    for name, child in sub.choices.items():
        yield from leaves(child, f"{prefix}{name} ")


def commands(parser):
    """(command name, its settable option strings and positional names), leaves only."""
    for name, leaf in leaves(parser):
        yield name, {s for a in leaf._actions if not isinstance(a, argparse._HelpAction)
                     for s in a.option_strings or [a.dest]}


def test_each_command_takes_only_what_it_reads():
    surface = dict(commands(_parser()))
    assert surface == SURFACE
    assert sum(map(len, surface.values())) == 38


def test_each_command_has_its_own_handler():
    # main calls args.run; a leaf without one would end in an AttributeError traceback
    handlers = {name: leaf.get_default("run") for name, leaf in leaves(_parser())}
    assert set(handlers) == set(SURFACE)
    for name, run_fn in handlers.items():
        assert callable(run_fn) and run_fn.__name__.startswith("_cmd_"), name
        assert getattr(cli, run_fn.__name__) is run_fn, name
    assert len(set(handlers.values())) == len(handlers)


def test_report_config_lists_what_was_read(tmp_path):
    configs = {}
    for name, argv in (("build", ["build", "p2-line"]),
                       ("cohomology", ["report", "cohomology"]),
                       ("picard", ["report", "picard"]),
                       ("noncoherent", ["report", "demo-noncoherent"]),
                       ("order-group", ["report", "order-group", "--example", "p2-line"])):
        out = tmp_path / f"{name}.json"
        assert run(*argv, "--out", str(out)) == 0
        configs[name] = load(out)["config"]
    window = {"t_lo": -4, "t_hi": 4, "u_lo": -8, "u_hi": 8}
    assert configs == {
        "build": {"field": "Q", "window": dict(window, m_t=2, m_u=2)},
        "cohomology": {"field": "Q", "bound": 8},
        "picard": {"field": "Q", "bound": 8},
        "noncoherent": {"field": "Q", "window": {"t_lo": -4, "t_hi": 4}},
        "order-group": {"field": "Q", "window": window},
    }


def check_report(capsys, path):
    rc = run("check", str(path))
    return rc, json.loads(capsys.readouterr().out)


def test_check_names_unwitnessed_rows(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    assert run("build", "p2-line", "--twist", "1", "--out", str(pair)) == 0
    rc, rep = check_report(capsys, pair)
    assert (rc, rep["unwitnessed"]) == (0, [])

    obj = load(pair)
    obj["A"]["generators"] = obj["W"]["generators"] = []
    bare = tmp_path / "no-witnesses.json"
    bare.write_text(json.dumps(obj))
    rc, rep = check_report(capsys, bare)
    assert (rc, rep["verdict"], rep["tallies"]["checked"], rep["failures"]) == (
        2, "inconclusive", 1, [])
    sides = [entry["side"] for entry in rep["unwitnessed"]]
    assert (sides.count("A"), sides.count("W")) == (30, 34)

    obj = load(pair)
    next(e for e in obj["A"]["levels"] if e["b"] == 0)["space"]["rows"].append(
        [{"coeffs": [[1, "1/1"]]}])
    u1 = tmp_path / "u1.json"
    u1.write_text(json.dumps(obj))
    rc, rep = check_report(capsys, u1)
    assert (rc, rep["verdict"], rep["failures"]) == (2, "inconclusive", [])
    assert rep["unwitnessed"] == [{"side": "A", "b": 0, "pivot": [1, 1]}]
    assert (rep["tallies"]["checked"], rep["tallies"]["deferred"]) == (1503, 47)
    assert next(row for row in rep["levels"] if row["b"] == 0)["index_A"] == 2


def test_out_of_window_witness_still_enters_the_span(tmp_path, capsys):
    # u^9 t^-2 sits above u_hi = 8: products with it escape or fail, and its
    # t^-2 slice no longer spans the trusted row u^-6 it spanned alone
    pair = tmp_path / "pair.json"
    assert run("build", "p2-line", "--twist", "1", "--out", str(pair)) == 0
    obj = load(pair)
    obj["A"]["generators"][0][0]["terms"].append([9, -2, "1/1"])
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(obj))
    assert run("check", str(wide)) == 1
    rep = json.loads(capsys.readouterr().out)
    assert (rep["verdict"], rep["subalgebra"], rep["module_closure"], rep["unit"]) == (
        "fail", "fail", "fail", "in")
    assert rep["unwitnessed"] == [{"side": "A", "b": -2, "pivot": [-6, 1]}]
    assert rep["tallies"] == {"checked": 1461, "deferred": 63, "escaped": 26}
    assert rep["failures"] == (
        [f"A-product #0*#{j} leaves A" for j in (2, 10, 11, 17, 18, 19, 24, 25, 26)]
        + [f"module product A#0*W#{j} leaves W" for j in (12, 20, 21, 27, 28, 29)])


WINDOW_KEYS = "t_lo t_hi u_lo u_hi"
# the key set of every JSON object in each report, by its path; list items share
# the path "[*]".  A report key may be added, never renamed or dropped, so a
# change here is an addition.
REPORT_KEYS = {
    "check": (("check", "{bare}", "--report", "{out}"), {
        "": "subalgebra module_closure fredholm verdict unit levels tallies failures "
            "unwitnessed config",
        ".levels[*]": "b index_A index_W marker_A marker_W",
        ".tallies": "checked deferred escaped",
        ".unwitnessed[*]": "side b pivot",
        ".config": "field window",
        ".config.window": WINDOW_KEYS + " m_t m_u",
    }),
    "hilbert": (("report", "hilbert", "--pair", "{bare}", "--j", "2", "--out", "{out}"), {
        "": "j table point_ideal config",
        ".point_ideal": "pass dims jumps",
        ".config": "field window",
        ".config.window": WINDOW_KEYS + " m_t m_u",
    }),
    "cohomology": (("report", "cohomology", "--out", "{out}"), {
        "": "h0 h1 levels levelwise agreement transition_surjective bound note config",
        ".levels[*]": "d h0 h1",
        ".levelwise": "h0 h1",
        ".config": "field bound",
    }),
    "picard": (("report", "picard", "--out", "{out}"), {
        "": "dims d levels config",
        ".levels[*]": "j d h0 h1",
        ".config": "field bound",
    }),
    "order-group": (("report", "order-group", "--example", "p2-line", "--out", "{out}"), {
        "": "d witness window_limited example config",
        ".example": "kind twist selfint synthetic point u t trivialization",
        ".config": "field window",
        ".config.window": WINDOW_KEYS,
    }),
    "demo-noncoherent": (("report", "demo-noncoherent", "--out", "{out}"), {
        "": "degree_bound dims point_ideal_dim point_ideal_sq_dim config",
        ".config": "field window",
        ".config.window": "t_lo t_hi",
    }),
}


def key_sets(obj, path="", out=None):
    """{path: set of key sets} over every JSON object in ``obj``."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        out.setdefault(path, set()).add(frozenset(obj))
        for key, child in obj.items():
            key_sets(child, f"{path}.{key}", out)
    elif isinstance(obj, list):
        for child in obj:
            key_sets(child, f"{path}[*]", out)
    return out


@pytest.mark.parametrize("report", REPORT_KEYS)
def test_report_key_sets(tmp_path, capsys, report):
    # the check runs on a pair without witnesses, so that unwitnessed rows are listed
    pair, bare, out = (str(tmp_path / name) for name in ("pair.json", "bare.json", "r.json"))
    assert run("build", "p2-line", "--twist", "1", "--out", pair) == 0
    obj = load(pair)
    obj["A"]["generators"] = obj["W"]["generators"] = []
    with open(bare, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    argv, keys = REPORT_KEYS[report]
    assert run(*(arg.format(bare=bare, out=out) for arg in argv)) in (0, 2)
    assert key_sets(load(out)) == {path: {frozenset(names.split())} for path, names in keys.items()}
