"""End-to-end checks of the command-line interface via subprocess.

Exit code contract: 0 success, 2 failure/usage, 3 budget exhausted,
4 unparsable input.
"""

import os
import pathlib
import random
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the children import the package from this checkout, as the tests do
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)}


def run(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "repet2d.cli", *args],
        capture_output=True, text=True, timeout=300, env=ENV, **kw,
    )


def test_gen_and_measure_pipeline(tmp_path):
    out = tmp_path / "m.txt"
    r = run("gen", "--family", "diagpad", "--params", "4", "6", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert out.read_text().startswith("2d 4 6")

    r = run("measure", "--in", str(out))
    assert r.returncode == 0, r.stderr
    assert "delta" in r.stdout and "rows" in r.stdout

    csv_out = tmp_path / "m.csv"
    r = run("measure", "--in", str(out), "--gamma-exact", "--cell-limit", "24",
            "--csv", str(csv_out))
    assert r.returncode == 0, r.stderr
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "measure,value"
    vals = dict(line.split(",", 1) for line in lines[1:])
    assert vals["gamma"] == "5"

    r = run("measure", "--in", str(out), "--pm", "2", "2")
    assert r.returncode == 0 and "factors_2x2" in r.stdout


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2d 2 2\na b\n")
    assert run("measure", "--in", str(bad)).returncode == 4

    big = tmp_path / "big.txt"
    r = run("gen", "--family", "identity", "--params", "12", "--out", str(big))
    assert r.returncode == 0
    assert run("measure", "--in", str(big), "--budget", "10").returncode == 3

    assert run("measure", "--in", str(tmp_path / "missing.txt")).returncode == 2
    assert run("gen", "--family", "nosuch", "--params", "1").returncode == 2
    assert run("experiment", "--name", "nosuch").returncode == 2


def test_missing_required_flags(tmp_path):
    calls = [("grammar", action) for action in ("validate", "expand", "tree", "minimize")]
    calls += [("nd", "measure"), ("grammar", "family", "--name", "ek")]
    for args in calls:
        r = run(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert "Traceback" not in r.stderr and "BadParam" in r.stderr, r.stderr


def test_grammar_subcommands(tmp_path):
    gpath = tmp_path / "g.txt"
    r = run("grammar", "family", "--name", "ek", "--param", "3", "--out", str(gpath))
    assert r.returncode == 0, r.stderr
    assert run("grammar", "validate", "--in", str(gpath)).returncode == 0
    r = run("grammar", "expand", "--in", str(gpath))
    assert r.returncode == 0 and r.stdout.startswith("2d 3 8")
    r = run("grammar", "tree", "--in", str(gpath))
    assert r.returncode == 0

    mpath = tmp_path / "m.txt"
    run("gen", "--family", "alt", "--params", "4", "6", "--out", str(mpath))
    r = run("grammar", "minimize", "--in", str(mpath), "--runs")
    assert r.returncode == 0 and "8" in r.stdout


def test_deep_grammar_commands_exit_cleanly(tmp_path):
    # a valid left-deep grammar of depth 3000 (see test_grammar2d)
    depth = 3000
    lines = ["axiom X0"]
    lines += [f"X{i} = h X{i + 1} {'AB'[i % 2]}" for i in range(depth - 1)]
    lines += [f"X{depth - 1} = h A B", "A = term a", "B = term b"]
    gpath = tmp_path / "deep.txt"
    gpath.write_text("\n".join(lines) + "\n")
    r = run("grammar", "tree", "--in", str(gpath))
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    assert str(2 * depth + 3) in r.stdout
    spath = tmp_path / "deep.scheme"
    r = run("macro", "from-grammar", "--in", str(gpath), "--out", str(spath))
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    r = run("macro", "validate", "--in", str(spath))
    assert r.returncode == 0, r.stdout + r.stderr


def test_grammar_minimize_deep_search_exits_on_budget(tmp_path):
    # a random binary square (seeded by its side) just large enough that the
    # first dive of the grammar search went deeper than Python's recursion
    # limit when the search was recursive (24 to 34 do not)
    rng = random.Random(35)
    rows = [" ".join(rng.choice("01") for _ in range(35)) for _ in range(35)]
    mpath = tmp_path / "m.txt"
    mpath.write_text("2d 35 35\n" + "\n".join(rows) + "\n")
    r = run("grammar", "minimize", "--in", str(mpath), "--budget", "1500")
    assert r.returncode == 3, r.stderr
    assert "work budget exceeded during grammar search" in r.stderr
    assert "Traceback" not in r.stderr


def test_access_verify(tmp_path):
    gpath = tmp_path / "g.txt"
    run("grammar", "family", "--name", "zeros", "--param", "16", "--out", str(gpath))
    r = run("access", "--grammar", str(gpath), "--query", "3", "5")
    assert r.returncode == 0 and "0" in r.stdout
    r = run("access", "--grammar", str(gpath), "--verify-all")
    assert r.returncode == 0, r.stderr
    assert r.stdout == (
        "cells 256  matches yes  max_hops 2  hop_bound 8\n"
        "hops  cells\n0     1\n1     30\n2     225\n"
    )
    # one scan: 273 steps to expand the grammar, then 256 cells
    r = run("access", "--grammar", str(gpath), "--verify-all", "--budget", "529")
    assert r.returncode == 0 and r.stdout.startswith("cells 256"), r.stderr
    r = run("access", "--grammar", str(gpath), "--verify-all", "--budget", "528")
    assert r.returncode == 3 and "Traceback" not in r.stderr
    r = run("access", "--grammar", str(gpath), "--query", "99", "1")
    assert r.returncode == 2
    # 2^20 cells: the expansion fits, the fourth row of the scan does not
    run("grammar", "family", "--name", "zeros", "--param", "1024", "--out", str(gpath))
    expansion = 1 + 1024 + 1024 * 1024
    r = run("access", "--grammar", str(gpath), "--verify-all",
            "--budget", str(expansion + 3 * 1024 + 1))
    assert r.returncode == 3 and "Traceback" not in r.stderr
    assert f"during access scan: {expansion + 4 * 1024} > limit" in r.stderr


def test_macro_roundtrip(tmp_path):
    mpath = tmp_path / "m.txt"
    run("gen", "--family", "zeros", "--params", "3", "3", "--out", str(mpath))
    spath = tmp_path / "s.txt"
    r = run("macro", "minimize", "--in", str(mpath), "--out", str(spath))
    assert r.returncode == 0, r.stderr
    assert run("macro", "validate", "--in", str(spath)).returncode == 0
    r = run("macro", "decode", "--in", str(spath))
    assert r.returncode == 0
    assert r.stdout.strip() == mpath.read_text().strip()


def test_macro_rejects_bad_scheme_files(tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("scheme 100000 100000\n")
    for action in ("validate", "decode"):
        r = run("macro", action, "--in", str(huge))
        assert r.returncode == 2 and "TooLarge" in r.stdout + r.stderr
        assert "Traceback" not in r.stderr
    cycle = tmp_path / "cycle.txt"  # cells 2 -> 3 -> 4 -> 2 never reach cell 1
    cycle.write_text("scheme 1 4\nexp 1 1 0\nphr 1 2 1 2 1 3\nphr 1 3 1 3 1 4\nphr 1 4 1 4 1 2\n")
    r = run("macro", "decode", "--in", str(cycle))
    assert r.returncode == 2 and "CyclicMap" in r.stdout + r.stderr
    assert "(1,2)" in r.stdout + r.stderr and "Traceback" not in r.stderr
    twice = tmp_path / "twice.txt"
    twice.write_text("scheme 1 2\nexp 1 1 0\nexp 1 2 1\nexp 1 1 1\n")
    r = run("macro", "validate", "--in", str(twice))
    assert r.returncode == 4 and "line 4" in r.stderr
    assert "Traceback" not in r.stderr


def test_blocktree_and_linearize(tmp_path):
    mpath = tmp_path / "m.txt"
    run("gen", "--family", "identity", "--params", "8", "--out", str(mpath))
    r = run("blocktree", "--in", str(mpath))
    assert r.returncode == 0 and "level" in r.stdout
    r = run("linearize", "--in", str(mpath), "--method", "hilbert")
    assert r.returncode == 0 and r.stdout.startswith("2d 1 64")
    r = run("linearize", "--in", str(mpath), "--method", "row")
    assert r.returncode == 0 and r.stdout.startswith("2d 1 64")
    # curve scan needs a power-of-two square
    run("gen", "--family", "zeros", "--params", "3", "5", "--out", str(mpath))
    assert run("linearize", "--in", str(mpath), "--method", "hilbert").returncode == 2


def test_nd_subcommands(tmp_path):
    npath = tmp_path / "x.nd"
    r = run("nd", "gen", "--family", "bdk", "--params", "3", "2", "--out", str(npath))
    assert r.returncode == 0, r.stderr
    assert npath.read_text().startswith("nd 3 5 5 5")
    r = run("nd", "measure", "--in", str(npath))
    assert r.returncode == 0 and "delta" in r.stdout
    r = run("nd", "grammar", "--family", "bdk", "--params", "3", "2")
    assert r.returncode == 0 and "64" in r.stdout


def test_experiment_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        r = run("experiment", "--name", "gap-g-vs-delta", "--out", str(path))
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.split(",")[0] == "k"

    r = run("experiment", "--name", "linearization-hilbert", "--params")
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 1  # header only for an empty range

    r = run("experiment", "--list")
    assert r.returncode == 0
    for name in ("gap-gamma-vs-delta", "b-vs-grl-identity", "bsq-vs-b"):
        assert name in r.stdout


def test_selftest_quick_reports_known_failure():
    r = run("selftest", "--quick")
    assert r.returncode == 2
    lines = [l for l in r.stdout.splitlines() if l.startswith("criterion")]
    assert len(lines) == 9
    assert sum(1 for l in lines if l.endswith("PASS")) == 8
    assert any(l.startswith("criterion 2") and l.endswith("FAIL") for l in lines)


def test_docs_list_every_experiment():
    import re

    import repet2d.experiments as E

    readme = (ROOT / "README.md").read_text()
    registry = set(E.experiment_names())
    for name in registry:
        assert name in readme, f"{name} missing from README"
    # and the README's experiment table never advertises an unknown one
    tabled = set(re.findall(r"^\| `([a-z0-9-]+)` \|", readme, re.MULTILINE))
    assert tabled == registry, tabled.symmetric_difference(registry)
