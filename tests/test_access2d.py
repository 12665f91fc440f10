import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace

from repet2d import (
    WorkBudget,
    access,
    access_many,
    build_bk_grammar,
    build_ek_grammar,
    build_index,
    build_zeros_rlslp,
    expand,
    full_scan,
    hop_bound,
    hop_bound_check,
)
from repet2d import access2d
from repet2d.accept import random_grammar, sample_rlslp, sample_slp
from repet2d.errors import BadParam, DanglingVariable, OutOfBounds, ShapeTooLarge, TooLarge
from repet2d.grammar2d import Grammar2D, Horiz, Terminal

from test_cli import ENV
from util import (
    Ledger,
    raises,
    reference_access,
    reference_build_index,
    reference_full_scan,
    reference_scan,
)


def test_access_equals_expansion_on_fixtures():
    for g in (sample_slp(), sample_rlslp(), build_ek_grammar(4), build_zeros_rlslp(9)):
        idx = build_index(g)
        m = expand(g)
        for y in range(1, m.rows + 1):
            for x in range(1, m.cols + 1):
                symbol, hops = access(idx, y, x)
                assert symbol == m.at(y, x), (y, x)
                assert 0 <= hops <= hop_bound(idx)


def test_access_random_grammars():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_grammar(rng)
        idx = build_index(g)
        rep = full_scan(idx)
        assert rep.ok, format(g)
        assert rep.max_hops == hop_bound_check(idx)


def _outcome(fn, index, budget):
    """The report of a scan, or the text of the budget fault it raised, with
    the steps used either way."""
    try:
        out = fn(index, budget)
    except ShapeTooLarge as exc:
        return f"raised {exc}", budget.used
    return repr(out), sorted(getattr(out, "histogram", {}).items()), budget.used


def _corruptions(index, rng):
    """Copies of ``index`` with one path changed: a margin moved by one
    between its neighbours (so each margin array stays sorted), y0 moved by
    one, or the symbol replaced."""
    name = rng.choice(sorted(index.paths))
    path = index.paths[name]
    rows, cols = index.info.dims[name]
    options = [replace(path, symbol="?"), replace(path, symbol=rng.choice("01"))]
    options += [replace(path, y0=y0) for y0 in (path.y0 - 1, path.y0 + 1) if 1 <= y0 <= rows]
    for axis in "udlr":
        margins = getattr(path, axis)
        for e in range(1, len(margins)):
            for v in (margins[e] - 1, margins[e] + 1):
                if margins[e - 1] <= v <= (margins[e + 1] if e + 1 < len(margins) else max(rows, cols)):
                    options.append(replace(path, **{axis: margins[:e] + (v,) + margins[e + 1 :]}))
    for bad in rng.sample(options, min(3, len(options))):
        yield replace(index, paths={**index.paths, name: bad})


def _answers(index):
    """``access`` of every cell in row-major order, or None when a cell
    makes it raise BadParam, as a corrupted index can."""
    try:
        return [access(index, y, x) for y in range(1, index.rows + 1) for x in range(1, index.cols + 1)]
    except BadParam:
        return None


def test_index_and_scans_equal_the_class_switching_oracle():
    rng = random.Random(7)
    grammars = [build_ek_grammar(k) for k in range(1, 7)]
    grammars += [build_bk_grammar(k) for k in (1, 2)]
    grammars += [build_zeros_rlslp(n) for n in (2, 3, 16)]
    grammars += [sample_slp(), sample_rlslp()]
    grammars += [random_grammar(rng, allow_runs=i % 4 != 0) for i in range(200)]
    corrupted = mismatched = faults = 0
    for n, g in enumerate(grammars):
        got_ledger, want_ledger = Ledger(), Ledger()
        idx = build_index(g, got_ledger)
        want = reference_build_index(g, want_ledger)
        assert repr(idx) == repr(want), format(g)
        assert got_ledger.steps == want_ledger.steps
        cells = [(y, x) for y in range(1, idx.rows + 1) for x in range(1, idx.cols + 1)]
        answers = [reference_access(want, y, x) for y, x in cells]
        assert [access(idx, y, x) for y, x in cells] == answers
        assert access_many(idx, cells) == answers
        got_ledger, want_ledger = Ledger(), Ledger()
        scan = full_scan(idx, got_ledger)
        ref = reference_full_scan(want, want_ledger, reference_access)
        assert repr(scan) == repr(ref)
        assert got_ledger.steps == want_ledger.steps
        assert scan.histogram == ref.histogram
        assert hop_bound_check(idx) == scan.max_hops
        # the batched scan also agrees with the cell-by-cell scan on indexes
        # that give wrong answers, and stops at the same budget fault
        indexes = [idx]
        for bad in _corruptions(idx, rng):
            bad_answers = _answers(bad)
            if bad_answers is not None:
                assert access_many(bad, cells) == bad_answers
                indexes.append(bad)
                corrupted += 1
        expansion = want_ledger.steps["grammar expansion"]
        for index in indexes:
            got = _outcome(full_scan, index, Ledger())
            assert got == _outcome(reference_full_scan, index, Ledger()), format(g)
            mismatched += "matches=False" in got[0]
            if n % 8:
                continue
            for k in range(idx.rows + 1):
                for limit in {expansion + k * idx.cols + d for d in (-1, 0, 1)} - {0}:
                    got = _outcome(full_scan, index, WorkBudget(limit=limit))
                    assert got == _outcome(reference_full_scan, index, WorkBudget(limit=limit))
                    faults += got[0].startswith("raised")
                scan_limit = k * idx.cols + 1
                assert _outcome(hop_bound_check, index, WorkBudget(limit=scan_limit)) == _outcome(
                    lambda i, b: reference_scan(i, b, None).max_hops, index, WorkBudget(limit=scan_limit)
                )
    # 516 corrupted indexes, 192 scans that stop at a mismatch, 824 faults
    assert corrupted > 400 and mismatched > 150 and faults > 600, (corrupted, mismatched, faults)


def test_scan_step_ledger_is_pinned():
    # one expansion, then one "access scan" charge of cols steps per row
    for g, pinned in (
        (build_ek_grammar(10), {"grammar expansion": 38912, "access scan": 10240}),
        (build_zeros_rlslp(64), {"grammar expansion": 4161, "access scan": 4096}),
    ):
        ledger = Ledger()
        assert full_scan(build_index(g), ledger).ok
        assert ledger.steps == pinned


def test_scan_reads_one_block_at_a_time(monkeypatch):
    # 2^24 cells: the scan reads only the rows the budget affords and stops
    # at the first row over it, without holding more than a block of cells
    idx = build_index(build_zeros_rlslp(4096))
    read = []
    descend = access2d._descend

    def counted(t, y, x):
        read.append(y.size)
        return descend(t, y, x)

    monkeypatch.setattr(access2d, "_descend", counted)
    exc = raises(ShapeTooLarge, hop_bound_check, idx, WorkBudget(limit=3 * 4096 + 1))
    assert str(exc) == "work budget exceeded during access scan: 16384 > limit 12289"
    assert read == [3 * 4096]
    tracemalloc.start()
    try:
        exc = raises(ShapeTooLarge, hop_bound_check, idx, WorkBudget(limit=40 * 4096 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc) == "work budget exceeded during access scan: 167936 > limit 163841"
    assert read[1:] == [1 << 16, 1 << 16, 40 * 4096 - (2 << 16)]
    # the scan's working set for one block, far below one int64 array of
    # the 2^24 cells (128 MiB)
    assert peak < 32 << 20, peak


def test_hop_bound_is_floor_log2_area():
    idx = build_index(build_ek_grammar(3))  # 3 x 8 = 24 cells
    assert hop_bound(idx) == 4
    idx1 = build_index(Grammar2D("S", {"S": Terminal("z")}))
    assert hop_bound(idx1) == 0
    assert access(idx1, 1, 1) == ("z", 0)


def test_access_bounds_checked():
    idx = build_index(sample_slp())
    raises(OutOfBounds, access, idx, 0, 1)
    raises(OutOfBounds, access, idx, 5, 1)
    raises(OutOfBounds, access, idx, 1, 7)
    assert access_many(idx, []) == []
    assert access_many(idx, [(4, 6), (1, 1)]) == [access(idx, 4, 6), access(idx, 1, 1)]
    # every pair is checked first; the first bad one names itself as access does
    exc = raises(OutOfBounds, access_many, idx, [(1, 1), (1, 7), (0, 1)])
    assert str(exc) == str(raises(OutOfBounds, access, idx, 1, 7))
    # margins keyed per path must stay below 2^63
    huge = build_index(build_zeros_rlslp(2**62))
    assert access(huge, 2**62, 1) == ("0", 1)
    raises(TooLarge, access_many, huge, [(1, 1)])


def test_build_index_validates():
    raises(
        DanglingVariable,
        build_index,
        Grammar2D("S", {"S": Horiz("S", "MISSING")}),
    )


def test_budget_applies_to_scan():
    idx = build_index(build_ek_grammar(5))
    raises(ShapeTooLarge, full_scan, idx, WorkBudget(limit=8))


def test_descent_on_an_index_that_disagrees_with_its_grammar_stops():
    # the axiom's y0 moved below its expansion: a cell's step comes out 0,
    # so a descent without a round bound would cycle forever; run in a child
    # so that a hang fails the test instead of stalling the suite
    code = """
from dataclasses import replace
from repet2d import build_ek_grammar, build_index, access_many, full_scan, hop_bound_check
from repet2d.errors import BadParam
idx = build_index(build_ek_grammar(3))
path = idx.paths[idx.grammar.axiom]
bad = replace(idx, paths={**idx.paths, idx.grammar.axiom: replace(path, y0=path.y0 + 5)})
for fn, arg in ((access_many, [(1, 1), (2, 3)]), (full_scan, None), (hop_bound_check, None)):
    try:
        fn(bad, arg)
    except BadParam as exc:
        print(exc)
"""
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=ENV
    )
    assert r.returncode == 0, r.stderr
    rounds = len(build_index(build_ek_grammar(3)).paths)
    assert r.stdout.splitlines() == [
        f"access index paths disagree with the grammar: {n} cell(s) still unresolved "
        f"after {rounds} rounds, one per variable"
        for n in (1, 10, 10)
    ], r.stdout


def test_point_access_on_an_index_that_disagrees_with_its_grammar_raises():
    # the axiom's y0 moved below its expansion, so cell (2, 3) leaves the
    # variable it descends into; and S2's path names its ancestor R3, so a
    # descent to (1, 7) cycles: run in a child so that a hang fails the test
    code = """
from dataclasses import replace
from repet2d import access, access_many, build_ek_grammar, build_index
from repet2d.errors import BadParam
idx = build_index(build_ek_grammar(3))
path = idx.paths[idx.grammar.axiom]
low = replace(idx, paths={**idx.paths, idx.grammar.axiom: replace(path, y0=path.y0 + 5)})
s2 = replace(idx.paths["S2"], names=("S2", "R3", "S1", "X0"))
cyclic = replace(idx, paths={**idx.paths, "S2": s2})
for fn, bad, arg in ((access, low, (2, 3)), (access, cyclic, (1, 7))):
    try:
        fn(bad, *arg)
    except BadParam as exc:
        print(exc)
try:
    access_many(low, [(2, 3)])
except BadParam:
    print("access_many raises BadParam")
"""
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=ENV
    )
    assert r.returncode == 0, r.stderr
    rounds = len(build_index(build_ek_grammar(3)).paths)
    assert r.stdout.splitlines() == [
        "access index paths disagree with the grammar at cell (2, 3) after 1 hop(s)",
        f"access index paths disagree with the grammar at cell (1, 7) after {rounds} hop(s)",
        "access_many raises BadParam",
    ], r.stdout
