"""End-to-end checks of the command-line interface via subprocess.

Exit code contract: 0 success, 2 failure/usage, 3 budget exhausted,
4 unparsable input.
"""

import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the children import the package from this checkout, as the tests do
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)}


def run(*args, env=None, timeout=300, **kw):
    return subprocess.run(
        [sys.executable, "-m", "repet2d.cli", *args],
        capture_output=True, text=True, timeout=timeout, env={**ENV, **(env or {})}, **kw,
    )


# runs the cli as ``python -m repet2d.cli`` does, then prints the package's
# modules in sys.modules as the last line of stderr
PROBE = """
import runpy, sys
try:
    runpy.run_module("repet2d.cli", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(m for m in sys.modules if m.split(".")[0] == "repet2d"), file=sys.stderr)
"""


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


# one file of each format, with the byte 0xff where {} stands
NOT_UTF8 = [
    (("measure",), "2d 1 2\n{} a\n"),
    (("grammar", "validate"), "axiom S\nS = h X Y\nX = term a\nY = term {}\n"),
    (("macro", "validate"), "scheme 1 2\nexp 1 1 a\nexp 1 2 {}\n"),
    (("nd", "measure"), "nd 1 2\n{} a\n"),
]


@pytest.mark.parametrize("command, text", NOT_UTF8, ids=[c[0] for c, _ in NOT_UTF8])
def test_a_file_that_is_not_utf8_is_a_parse_error(command, text, tmp_path):
    # files are read as UTF-8; a byte that is not is named by its offset
    head, tail = text.split("{}")
    path = tmp_path / "bad.txt"
    path.write_bytes(head.encode() + b"\xff" + tail.encode())
    r = run(*command, "--in", str(path))
    assert r.returncode == 4, r.stderr
    assert "Traceback" not in r.stderr
    assert f"byte {len(head)} is not UTF-8" in r.stderr


def test_files_are_utf8_under_any_locale(tmp_path):
    # under the C locale with UTF-8 mode off the locale encoding is ASCII;
    # a matrix holding a token outside it still writes and reads as UTF-8
    code = """
import locale, sys
from repet2d.core2d import Matrix2D, read_matrix, write_matrix
m = Matrix2D.from_tokens([["\\u00e9", "a"], ["a", "\\u00e9"]])
write_matrix(m, sys.argv[1])
assert read_matrix(sys.argv[1]) == m
print(locale.getpreferredencoding(False))
"""
    path = tmp_path / "m.txt"
    r = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True,
        timeout=120, env={**ENV, "LC_ALL": "C", "PYTHONUTF8": "0"},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().lower() not in ("utf-8", "utf8")
    assert path.read_bytes() == "2d 2 2\n\u00e9 a\na \u00e9\n".encode()
    r = run("measure", "--in", str(path), env={"LC_ALL": "C", "PYTHONUTF8": "0"})
    assert r.returncode == 0, r.stderr
    assert "alphabet 2" in " ".join(r.stdout.split())


def test_measure_of_a_long_string_fits_its_budget(tmp_path):
    # delta of the 1 x 65536 string phlin(identity(256)) counts the rest of
    # its one long chain from a suffix sort after 16 passes: 3,079,591
    # steps. Switching after 11 passes per bit it took 13,544,951, and with
    # a pass per shape the budget ran out near 20,000,000 in the passes
    square, string = tmp_path / "identity.txt", tmp_path / "string.txt"
    assert run("gen", "--family", "identity", "--params", "256", "--out", str(square)).returncode == 0
    r = run("linearize", "--in", str(square), "--method", "hilbert", "--out", str(string))
    assert r.returncode == 0, r.stderr
    r = run("--budget", "4000000", "measure", "--in", str(string))
    assert r.returncode == 0, r.stderr
    rows = dict(line.split() for line in r.stdout.splitlines())
    assert (rows["cols"], rows["delta"], rows["delta_shape"]) == ("65536", "2", "1x1")
    # out of budget in the first pass and in the suffix sort (the passes
    # before it take 1,048,440 steps, each level of the sort 65,521)
    for limit in ("5000", "2000000"):
        r = run("--budget", limit, "measure", "--in", str(string))
        assert r.returncode == 3, (limit, r.stderr)
        assert "row ranking" in r.stderr and "Traceback" not in r.stderr, r.stderr


# each command with the arguments its parser requires; the files need not
# exist, as the budget is checked before a command runs
COMMANDS = {
    "gen": (),
    "measure": ("--in", "m.txt"),
    "grammar": ("validate",),
    "access": ("--grammar", "g.txt"),
    "macro": ("validate", "--in", "s.txt"),
    "blocktree": ("--in", "m.txt"),
    "linearize": ("--in", "m.txt", "--method", "hilbert"),
    "nd": ("measure",),
    "experiment": ("--list",),
    "selftest": ("--quick",),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_rejects_a_budget_below_one(command, tmp_path):
    from repet2d.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(sub.choices) == set(COMMANDS)
    for where, value in (("after", "0"), ("before", "-5")):
        flag = ("--budget", value)
        args = (command, *COMMANDS[command], *flag) if where == "after" else (*flag, command, *COMMANDS[command])
        r = run(*args, cwd=tmp_path)
        assert r.returncode == 2, (args, r.stderr)
        assert f"BadParam: --budget must be positive, got {value}" in r.stderr, r.stderr
        assert "Traceback" not in r.stderr and r.stdout == "", (r.stdout, r.stderr)


def test_malformed_budget_variable_is_a_usage_error(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("2d 2 2\n0 1\n1 0\n")
    for raw in ("abc", "0", "-5"):
        r = run("measure", "--in", str(m), env={"REPET2D_BUDGET": raw})
        assert r.returncode == 2, (raw, r.stderr)
        assert "BadParam" in r.stderr and "REPET2D_BUDGET" in r.stderr, r.stderr
        assert "Traceback" not in r.stderr, r.stderr


def test_the_budget_variable_is_read_once_a_process(monkeypatch):
    # a default budget reads REPET2D_BUDGET when the first one is made and
    # keeps that limit for the process, so a default budget costs no lookup
    from repet2d.budget import WorkBudget, default_limit, ensure_budget

    monkeypatch.setenv("REPET2D_BUDGET", "123")
    default_limit.cache_clear()
    try:
        assert WorkBudget().limit == 123
        monkeypatch.setenv("REPET2D_BUDGET", "456")
        assert ensure_budget(None).limit == 123
    finally:
        default_limit.cache_clear()


def test_commands_import_only_the_modules_they_use(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("2d 2 2\n0 1\n1 0\n")
    for args, used in (
        (("--help",), ()),
        (("measure", "--in", str(m)), ("core2d", "measures")),
        (("experiment", "--list"), ("experiments",)),
        (
            ("experiment", "--name", "gap-gamma-vs-delta"),
            ("core2d", "experiments", "families", "measures"),
        ),
    ):
        r = subprocess.run(
            [sys.executable, "-c", PROBE, *args],
            capture_output=True, text=True, timeout=300, env=ENV,
        )
        assert r.returncode == 0, r.stderr
        want = sorted(("repet2d", "repet2d.budget", "repet2d.errors") + tuple(f"repet2d.{u}" for u in used))
        assert r.stderr.splitlines()[-1].split() == want, args


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


def test_grammar_minimize_refuses_a_window_table_over_the_cap(tmp_path):
    # 128 x 128 has (128*129/2)^2 = 68,161,536 window labels: refused before
    # the table is built (it would take about 545 MB as int64)
    rng = random.Random(128)
    rows = [" ".join(rng.choice("01") for _ in range(128)) for _ in range(128)]
    mpath = tmp_path / "m.txt"
    mpath.write_text("2d 128 128\n" + "\n".join(rows) + "\n")
    r = run("grammar", "minimize", "--in", str(mpath), timeout=60)
    assert r.returncode == 2, r.stderr
    assert "TooLarge: the window ids of a 128x128 matrix are 68161536 labels" in r.stderr
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
    # one budget for the whole invocation: 3 steps to build the index, then
    # one scan of 273 steps to expand the grammar and 256 cells
    r = run("access", "--grammar", str(gpath), "--verify-all", "--budget", "532")
    assert r.returncode == 0 and r.stdout.startswith("cells 256"), r.stderr
    r = run("access", "--grammar", str(gpath), "--verify-all", "--budget", "531")
    assert r.returncode == 3 and "Traceback" not in r.stderr
    r = run("access", "--grammar", str(gpath), "--query", "99", "1")
    assert r.returncode == 2
    # 2^20 cells: the index and the expansion fit, the fourth row of the
    # scan does not
    run("grammar", "family", "--name", "zeros", "--param", "1024", "--out", str(gpath))
    used = 3 + 1 + 1024 + 1024 * 1024
    r = run("access", "--grammar", str(gpath), "--verify-all",
            "--budget", str(used + 3 * 1024 + 1))
    assert r.returncode == 3 and "Traceback" not in r.stderr
    assert f"during access scan: {used + 4 * 1024} > limit" in r.stderr


def test_access_verify_all_on_zeros_4096_is_one_walk(tmp_path):
    # 2^24 cells filled by one walk over the heavy paths: well under the 5
    # to 9 s the scan alone took by batched descents
    gpath = tmp_path / "g.txt"
    run("grammar", "family", "--name", "zeros", "--param", "4096", "--out", str(gpath))
    start = time.perf_counter()
    r = run("access", "--grammar", str(gpath), "--verify-all")
    elapsed = time.perf_counter() - start
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("cells 16777216  matches yes  max_hops 2  hop_bound 24\n")
    assert elapsed < 3, elapsed


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


def test_macro_minimize_exits_on_budget(tmp_path):
    mpath = tmp_path / "m.txt"
    mpath.write_text("2d 2 2\n0 0\n0 0\n")  # its search ticks 10 nodes
    r = run("macro", "minimize", "--in", str(mpath), "--budget", "2")
    assert r.returncode == 3, r.stderr
    assert "work budget exceeded during scheme search: 3 > limit 2" in r.stderr
    assert "Traceback" not in r.stderr


def test_macro_validate_exits_on_budget_before_it_allocates(tmp_path):
    # identity_scheme(4096) has 2^24 cells, 64 MiB as one int32 array: the
    # child stops at the charge, well below that, as macro decode does
    from repet2d import format_scheme, identity_scheme

    spath = tmp_path / "s.txt"
    spath.write_text(format_scheme(identity_scheme(4096)))
    # the child's own peak: ru_maxrss would carry this process's over exec
    probe = """
import runpy
try:
    runpy.run_module("repet2d.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        print(*[line for line in fh if line.startswith("VmHWM:")])
"""
    for action in ("validate", "decode"):
        r = subprocess.run(
            [sys.executable, "-c", probe, "macro", action, "--in", str(spath), "--budget", "10"],
            capture_output=True, text=True, timeout=300, env=ENV,
        )
        assert r.returncode == 3, r.stderr
        assert "work budget exceeded during scheme decode: 16777216 > limit 10" in r.stderr
        assert "Traceback" not in r.stderr, r.stderr
        label, peak_kb, unit = r.stdout.split()
        assert (label, unit) == ("VmHWM:", "kB") and int(peak_kb) < 48 << 10, (action, r.stdout)


def test_macro_decode_charges_before_it_checks(tmp_path):
    # a budget too small for the grid wins over a fault of the scheme
    cycle = tmp_path / "cycle.txt"  # cells 2 -> 3 -> 4 -> 2 never reach cell 1
    cycle.write_text("scheme 1 4\nexp 1 1 0\nphr 1 2 1 2 1 3\nphr 1 3 1 3 1 4\nphr 1 4 1 4 1 2\n")
    r = run("macro", "decode", "--in", str(cycle), "--budget", "3")
    assert r.returncode == 3, r.stderr
    assert "work budget exceeded during scheme decode: 4 > limit 3" in r.stderr
    r = run("macro", "decode", "--in", str(cycle), "--budget", "4")
    assert r.returncode == 2 and "CyclicMap" in r.stdout + r.stderr
    assert "Traceback" not in r.stderr


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


def test_blocktree_exits_on_budget(tmp_path):
    # a 16 x 16 grid of 4 x 4 boxes, each one of four tiles: the ranking
    # passes, then one step per node
    from repet2d.blocktree2d import build_blocktree
    from repet2d.core2d import write_matrix
    from test_blocktree2d import blocky
    from util import Ledger

    mpath = tmp_path / "m.txt"
    m = blocky(random.Random(16), 16, 4)
    write_matrix(m, mpath)
    ledger = Ledger()
    build_blocktree(m, budget=ledger)
    total = sum(ledger.steps.values())
    ranking = total - ledger.steps["block tree"]
    r = run("blocktree", "--in", str(mpath), "--budget", str(total))
    assert r.returncode == 0 and r.stdout.startswith("padded_side 16"), r.stderr
    # the first pass, the last pass and the last node do not fit
    for limit, what in ((1, "row ranking: 240"), (ranking - 1, "column ranking"), (total - 1, "block tree")):
        r = run("blocktree", "--in", str(mpath), "--budget", str(limit))
        assert r.returncode == 3 and "Traceback" not in r.stderr
        assert f"during {what}" in r.stderr, r.stderr
    assert f"during block tree: {total} > limit {total - 1}" in r.stderr


def test_nd_subcommands(tmp_path):
    npath = tmp_path / "x.nd"
    r = run("gen", "--family", "bdk", "--params", "3", "2", "--out", str(npath))
    assert r.returncode == 0, r.stderr
    assert npath.read_text().startswith("nd 3 5 5 5")
    r = run("nd", "measure", "--in", str(npath))
    assert r.returncode == 0 and "delta" in r.stdout
    r = run("nd", "grammar", "--params", "3", "2")
    assert r.returncode == 0 and "64" in r.stdout


def test_nd_has_no_gen_action_and_no_family_flag(tmp_path):
    # the cube comes from gen --family bdk alone, and nd rejects the flag it
    # would otherwise ignore
    from repet2d.multidim import bdk, format_nd

    r = run("gen", "--family", "bdk", "--params", "3", "2")
    assert r.returncode == 0 and r.stdout == format_nd(bdk(3, 2))
    npath = tmp_path / "x.nd"
    npath.write_text(r.stdout)
    for args in (
        ("nd", "gen", "--params", "3", "2"),
        ("nd", "grammar", "--family", "xyz", "--params", "2", "2"),
        ("nd", "measure", "--in", str(npath), "--family", "xyz"),
    ):
        r = run(*args)
        assert r.returncode == 2, args
        assert r.stderr.startswith("usage: ") and "Traceback" not in r.stderr, args


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
