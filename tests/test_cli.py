import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import pair_equal_in_window
from ribbonlab.cli import main
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


def test_exit_codes_deterministic(pair_path, capsys):
    assert run("check", str(pair_path)) == run("check", str(pair_path))


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
    # depth beyond the pair's t-window is a truncation shortfall, not usage
    assert run("report", "hilbert", "--pair", str(pair_path), "--j", "6",
               "--max-n", "2", "--out", str(tmp_path / "h.json")) == 2


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
    bad = tmp / "mutated.json"
    bad.write_text(json.dumps(set_path(obj, path, data.draw(OTHER_JSON[kind]))))
    for argv in (["check", str(bad)],
                 ["report", "hilbert", "--pair", str(bad), "--max-n", "2",
                  "--out", str(tmp / "h.json")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1
