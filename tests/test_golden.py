"""Golden output digests: a fixed set of CLI commands, byte for byte.

Every command runs in-process through ``cli.main``, in one working directory
and with relative paths only, so no temporary path reaches stdout or stderr.
A command's digest is the SHA-256 of its exit code, stdout, stderr and every
file it writes (relative name and bytes), and ``golden.json`` maps each
command to its digest.  Where argparse refuses the arguments, stderr is left
out: its wording is the standard library's and varies across Python
versions.

A change that alters outputs on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py --write

and names every digest it changed, with the reason.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from perturbed import perturbed_pair
from ribbonlab.cli import main
from ribbonlab.geometry import forward_krichever, make_datum
from ribbonlab.local2d import Window2D
from ribbonlab.series import Field

GOLDEN = Path(__file__).with_name("golden.json")

EXAMPLES = ("p2-line", "even-variant", "nilpotent", "nodal-cubic")
# the half-width h = 8 window of the schur-monomial benchmark workload
MONOMIAL_WINDOW = ("--t-lo", "-8", "--t-hi", "8", "--u-lo", "-16", "--u-hi", "16",
                   "--margin-t", "4", "--margin-u", "4")
PERTURBED = 8       # seeded perturbed pairs, twists 0-3 in turn
PLANTED = (1, 6)    # the pairs with a planted A-witness term outside A
PERTURBED_SEED = 26
# usage errors that argparse itself reports; their stderr is not digested
ARGPARSE_REFUSALS = [(), ("frobnicate",), ("check",), ("build", "p2-line", "--twist", "x")]


def _pair_commands(name, build_args, hilbert_args=()):
    pair = f"{name}.json"
    return [("build", *build_args, "--out", pair),
            ("check", pair, "--report", f"{name}-check.json"),
            ("report", "hilbert", "--pair", pair, *hilbert_args, "--out", f"{name}-hilbert.json")]


def commands() -> list:
    """The command set, in run order: later commands read earlier outputs."""
    out = []
    for kind in EXAMPLES:
        out += _pair_commands(kind, (kind,))
        out.append(("report", "order-group", "--example", kind, "--out", f"{kind}-order.json"))
    for m in (-1, 0, 2):
        out += _pair_commands(f"fp7-m{m}", ("p2-line", "--twist", str(m), "--field", "Fp:7"),
                              ("--j", "2"))
    for m in range(4):
        out += _pair_commands(f"h8-m{m}", ("p2-line", "--twist", str(m)) + MONOMIAL_WINDOW,
                              ("--j", "2", "--max-n", "6"))
    out += [
        ("report", "cohomology", "--twist", "2", "--depth", "20", "--bound", "24",
         "--out", "cohomology.json"),
        ("report", "picard", "--max-i", "10", "--bound", "14", "--out", "picard.json"),
        ("report", "demo-noncoherent", "--out", "noncoherent.json"),
        # malformed input: each refusal is one ribbonlab line on stderr, exit 3
        ("check", "missing.json"),
        ("check", "junk.json"),
        ("check", "float.json"),
        ("build", "p2-line", "--t-lo", "5", "--t-hi", "4", "--out", "bad-window.json"),
        ("report", "hilbert", "--pair", "p2-line.json", "--max-n", "-1", "--out", "neg.json"),
        ("report", "cohomology", "--field", "Fp:8", "--out", "fp8.json"),
        ("report", "picard", "--max-i", "0", "--out", "picard-0.json"),
    ]
    out += ARGPARSE_REFUSALS
    out += [("check", f"perturbed-{i}.json") for i in range(PERTURBED)]
    return out


def write_inputs(cwd: Path):
    """The input files no command writes: malformed pairs and perturbed pairs."""
    (cwd / "junk.json").write_text("{not json", encoding="utf-8")
    obj = forward_krichever(make_datum("p2-line"), Window2D(-4, 4, -8, 8, 2, 2),
                            Field(7)).to_json()
    obj["A"]["generators"][0][0]["terms"][0][2] = 0.5
    (cwd / "float.json").write_text(json.dumps(obj), encoding="utf-8")
    rng = random.Random(PERTURBED_SEED)
    for i in range(PERTURBED):
        pair = perturbed_pair(rng, i % 4, i in PLANTED)
        (cwd / f"perturbed-{i}.json").write_text(json.dumps(pair.to_json(), sort_keys=True),
                                                 encoding="utf-8")


def _stamp(cwd: Path) -> dict:
    return {p.name: (st.st_mtime_ns, st.st_size, st.st_ino)
            for p in cwd.iterdir() for st in (p.stat(),)}


def digest(rc: int, out: str, err, files: dict) -> str:
    h = hashlib.sha256(json.dumps([rc, out, err]).encode())
    for name in sorted(files):
        h.update(b"\0%s\0%d\0" % (name.encode(), len(files[name])))
        h.update(files[name])
    return h.hexdigest()


def run_all(cwd: Path) -> dict:
    """Digest of each command, keyed by its command line; cwd must be the working directory."""
    write_inputs(cwd)
    digests = {}
    for argv in commands():
        before = _stamp(cwd)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
        written = {name: (cwd / name).read_bytes()
                   for name, stamp in _stamp(cwd).items() if before.get(name) != stamp}
        keep_err = None if argv in ARGPARSE_REFUSALS else err.getvalue()
        digests[shlex.join(("ribbonlab",) + argv)] = digest(rc, out.getvalue(), keep_err, written)
    return digests


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_all(tmp_path)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(got) == len(commands())
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, f"{len(changed)} of {len(got)} digests differ: {changed}"


# run in a child interpreter whose imports of the test tools fail
BLOCKED_IMPORTS = """
import sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("pytest", "_pytest", "hypothesis", "sympy"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, Blocked())
import perturbed
import test_golden
"""


def test_golden_script_needs_neither_pytest_nor_hypothesis_nor_sympy():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", BLOCKED_IMPORTS], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digests = run_all(Path(tmp))
        finally:
            os.chdir(home)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
