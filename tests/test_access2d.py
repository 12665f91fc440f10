import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

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
from repet2d.access2d import HeavyPath
from repet2d.accept import random_grammar, sample_rlslp, sample_slp
from repet2d.errors import BadParam, DanglingVariable, OutOfBounds, ShapeTooLarge
from repet2d.grammar2d import Grammar2D, Horiz, RunH, RunV, Terminal, Vert

from test_cli import ENV
from test_grammar2d import deep_grammar
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
    """The report of a scan, or the class and text of the budget fault or
    refused cell it raised, with the steps used either way."""
    try:
        out = fn(index, budget)
    except (ShapeTooLarge, BadParam) as exc:
        return f"raised {type(exc).__name__}: {exc}", budget.used
    return repr(out), sorted(getattr(out, "histogram", {}).items()), budget.used


def _corruptions(index, rng):
    """Copies of ``index`` with one path changed: a margin moved by one
    between its neighbours (so each margin array stays sorted), y0 moved by
    one, or the symbol replaced."""
    name = rng.choice(sorted(index.paths))
    options = _corrupted_paths(index, name, rng)
    for bad in rng.sample(options, min(3, len(options))):
        yield replace(index, paths={**index.paths, name: bad})


def _corrupted_paths(index, name, rng):
    """Every path that ``_corruptions`` may put in place of ``name``'s."""
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
    return options


def _answers(fn, *args):
    """What ``fn(*args)`` returns, or the class and text of the BadParam it
    raises, as ``access`` does on a cell a corrupted index sends astray."""
    try:
        return fn(*args)
    except BadParam as exc:
        return type(exc).__name__, str(exc)


def test_index_and_scans_equal_the_class_switching_oracle():
    rng = random.Random(7)
    grammars = [build_ek_grammar(k) for k in range(1, 7)]
    grammars += [build_bk_grammar(k) for k in (1, 2)]
    grammars += [build_zeros_rlslp(n) for n in (2, 3, 16)]
    grammars += [sample_slp(), sample_rlslp()]
    grammars += [random_grammar(rng, allow_runs=i % 4 != 0) for i in range(200)]
    corrupted = refused = mismatched = faults = 0
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
        # the scans and access_many also agree with access cell by cell on
        # indexes that give wrong answers or refuse a cell, and stop at the
        # same mismatch, refused cell or budget fault
        indexes = [idx, *_corruptions(idx, rng)]
        corrupted += len(indexes) - 1
        expansion = want_ledger.steps["grammar expansion"]
        for index in indexes:
            point = _answers(lambda: [access(index, y, x) for y, x in cells])
            assert _answers(access_many, index, cells) == point, format(g)
            refused += isinstance(point, tuple)
            offsets = [None]  # no limit
            if n % 8 == 0:
                offsets += [k * idx.cols + d for k in range(idx.rows + 1) for d in (-1, 0, 1)]
            for offset in offsets:
                for scan, reference, base in (
                    (full_scan, reference_full_scan, expansion),
                    (hop_bound_check, _reference_max_hops, 0),
                ):
                    limit = None if offset is None else base + offset
                    if limit is not None and limit < 1:
                        continue
                    got = _outcome(scan, index, _budget(limit))
                    assert got == _outcome(reference, index, _budget(limit)), (format(g), limit)
                    mismatched += "matches=False" in got[0]
                    faults += got[0].startswith("raised")
    # 550 corrupted indexes, 34 of them refusing a cell, 342 scans that stop
    # at a mismatch, 1711 that raise
    assert corrupted > 400 and refused > 0 and mismatched > 150 and faults > 600, (
        corrupted, refused, mismatched, faults
    )


def _budget(limit):
    return Ledger() if limit is None else WorkBudget(limit=limit)


def _reference_max_hops(index, budget):
    return reference_scan(index, budget, None).max_hops


def test_scan_step_ledger_is_pinned():
    # one expansion, then one "access scan" charge of cols steps per row
    for g, pinned in (
        (build_ek_grammar(10), {"grammar expansion": 38912, "access scan": 10240}),
        (build_zeros_rlslp(64), {"grammar expansion": 4161, "access scan": 4096}),
    ):
        ledger = Ledger()
        assert full_scan(build_index(g), ledger).ok
        assert ledger.steps == pinned


def _spied(monkeypatch):
    """The sizes of the blocks the scans read through ``access``, as they
    read them."""
    calls = []
    block = access2d._access_block
    monkeypatch.setattr(
        access2d,
        "_access_block",
        lambda index, tokens, cell, stop: calls.append(stop - cell) or block(index, tokens, cell, stop),
    )
    return calls


def test_scan_reads_one_block_at_a_time(monkeypatch):
    # 2^24 cells: the scan reads only the rows the budget affords and stops
    # at the first row over it, without holding more than a block of cells
    idx = build_index(build_zeros_rlslp(4096))
    read = _spied(monkeypatch)
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


def test_filled_scans_equal_the_block_descent_and_the_cell_by_cell_scan(monkeypatch):
    # on every index build_index makes, with a budget for every row, the
    # scans fill the grid and never call access; their reports, histograms
    # and ledgers equal those of the scans read through access a block at
    # a time and, on grids of at most 2^12 cells, those of the scan that
    # calls access cell by cell
    rng = random.Random(27)
    grammars = [build_ek_grammar(k) for k in range(1, 9)] + [build_bk_grammar(k) for k in (1, 2, 3)]
    grammars += [sample_slp(), sample_rlslp(), deep_grammar(3000)]
    grammars += [build_zeros_rlslp(2**k) for k in range(1, 11)]
    grammars += [random_grammar(rng, allow_runs=i % 4 != 0) for i in range(200)]
    calls = _spied(monkeypatch)
    derived = access2d._paths_are_derived
    for g in grammars:
        idx = build_index(g)
        got_ledger = Ledger()
        got = full_scan(idx, got_ledger)
        assert hop_bound_check(idx) == got.max_hops and not calls, format(g)
        monkeypatch.setattr(access2d, "_paths_are_derived", lambda index: False)
        want_ledger = Ledger()
        want = full_scan(idx, want_ledger)
        assert calls
        monkeypatch.setattr(access2d, "_paths_are_derived", derived)
        calls.clear()
        assert repr(got) == repr(want) and got.histogram == want.histogram, format(g)
        assert (got_ledger.steps, got_ledger.calls) == (want_ledger.steps, want_ledger.calls)
        if idx.rows * idx.cols <= 1 << 12:
            ref_ledger = Ledger()
            ref = reference_full_scan(idx, ref_ledger)
            assert repr(got) == repr(ref) and got.histogram == ref.histogram
            assert (got_ledger.steps, got_ledger.calls) == (ref_ledger.steps, ref_ledger.calls)
    # an unreachable variable with 2^124 cells: the scans fill what the
    # axiom reaches, and access_many answers as access does
    g = Grammar2D("S", {"S": Horiz("Z", "O"), "O": Terminal("1"), "X": RunV(2**62, "Y"),
                        "Y": RunH(2**62, "Z"), "Z": Terminal("0")})
    idx = build_index(g)
    assert full_scan(idx).ok and hop_bound_check(idx) == 1 and not calls
    assert access_many(idx, [(1, 1), (1, 2)]) == [access(idx, 1, 1), access(idx, 1, 2)] == [("0", 0), ("1", 1)]


def _lighter_path(index, name):
    """The path of ``name`` as build_index would store it if the lighter
    child of its concatenation were the heavy one: every margin consistent
    with the rule, but not the path build_index derives."""
    dims = index.info.dims
    _, axis, _, kids = index.parts[name]
    light = kids[1] if index.heavy[name] == kids[0] else kids[0]
    q = index.paths[light]
    before = 0 if light == kids[0] else dims[kids[0]][axis - 1]
    after = dims[name][axis - 1] - before - dims[light][axis - 1]
    by = (before, after, 0, 0) if axis == 1 else (0, 0, before, after)
    u, d, l, r = ((0, *(b + m for m in margins)) for b, margins in zip(by, (q.u, q.d, q.l, q.r)))
    return HeavyPath((name, *q.names), u, d, l, r, q.symbol, q.y0 + by[0], q.x0 + by[2])


def test_an_index_build_index_would_not_make_is_descended(monkeypatch):
    # every corruption of _corruptions, a path that names its variable again
    # in place of its heavy child, a path that follows the lighter child of
    # a concatenation, an extent one off and a grid one row too tall send
    # both scans to access, a block at a time; on a changed path, the
    # report, histogram and ledger of full_scan, or the cell access
    # refuses, equal those of the cell-by-cell scan (which expands the
    # grammar by the extents it derives, not the index's)
    rng = random.Random(31)
    grammars = [build_ek_grammar(k) for k in (2, 3, 4)] + [build_bk_grammar(2), build_zeros_rlslp(5)]
    grammars += [sample_slp(), sample_rlslp()] + [random_grammar(rng) for _ in range(30)]
    calls = _spied(monkeypatch)
    kinds = Counter()
    for g in grammars:
        idx = build_index(g)
        dims = idx.info.dims
        area = lambda v: dims[v][0] * dims[v][1]
        bad = [("rows", replace(idx, info=replace(idx.info, rows=idx.rows + 1)))]
        for name, path in idx.paths.items():
            paths = [p for p in _corrupted_paths(idx, name, rng) if p != path]
            _, _, count, kids = idx.parts[name]
            if kids:
                paths.append(replace(path, names=(name, name, *path.names[2:])))
            if kids and not count and area(kids[0]) != area(kids[1]):
                paths.append(_lighter_path(idx, name))
            for p in paths:
                kind = next(f.name for f in fields(p) if getattr(p, f.name) != getattr(path, f.name))
                bad.append((kind, replace(idx, paths={**idx.paths, name: p})))
            m, n = dims[name]
            for extent in ((m + 1, n), (m, n + 1)):
                bad.append(("dims", replace(idx, info=replace(idx.info, dims={**dims, name: extent}))))
        for kind, index in bad:
            for scan in (full_scan, hop_bound_check):
                calls.clear()
                try:
                    scan(index)
                except BadParam:
                    pass
                assert calls, (format(g), kind)
            if index.info is idx.info:
                got = _outcome(full_scan, index, Ledger())
                assert got == _outcome(reference_full_scan, index, Ledger()), (format(g), kind)
            kinds[kind] += 1
    assert set(kinds) == {"names", "u", "d", "l", "r", "symbol", "y0", "dims", "rows"}, kinds
    # S glues A and B (2 x 1 each); a rule that glues A to the 1 x 1 X keeps
    # every extent sum along the glued axis, but not the rows. That index, a
    # budget one step short of every row, and a grid over the cap are read
    # through access
    g = Grammar2D("S", {"S": Horiz("A", "B"), "A": Vert("X", "Y"), "B": Vert("Y", "X"),
                        "X": Terminal("0"), "Y": Terminal("1")})
    idx = build_index(g)
    glued = replace(idx, parts={**idx.parts, "S": (None, 2, 0, ("A", "X"))})
    ek = build_index(build_ek_grammar(4))
    need = Ledger()
    report = full_scan(ek, need)
    for index, limit, through_access in ((glued, need.limit, True), (ek, need.used - 1, True), (ek, need.used, False)):
        calls.clear()
        _outcome(full_scan, index, WorkBudget(limit=limit))
        assert bool(calls) == through_access, (format(index.grammar), limit)
    monkeypatch.setattr(access2d, "MAX_CELLS", ek.rows * ek.cols - 1)
    calls.clear()
    assert hop_bound_check(ek) == report.max_hops and calls


def test_full_scan_of_zeros_4096_fills_in_bounded_memory():
    # the expansion, the symbol ids and the hops take one byte a cell each
    # (48 MiB); the descents took 5 to 9 s here
    idx = build_index(build_zeros_rlslp(4096))
    tracemalloc.start()
    try:
        report = full_scan(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.histogram == {0: 1, 1: 8190, 2: 16769025}
    assert peak <= 50 << 20, peak


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
    # margins past 2^63 are Python ints, in access and access_many alike
    huge = build_index(build_zeros_rlslp(2**62))
    assert access(huge, 2**62, 1) == ("0", 1)
    queries = [(1, 1), (2**62, 1), (2**61 + 3, 2**62)]
    assert access_many(huge, queries) == [access(huge, y, x) for y, x in queries]


def test_build_index_validates():
    raises(
        DanglingVariable,
        build_index,
        Grammar2D("S", {"S": Horiz("S", "MISSING")}),
    )


def _build_outcome(build, g, budget):
    try:
        out = repr(build(g, budget))
    except ShapeTooLarge as exc:
        out = f"raised {exc}"
    return out, budget.used


def test_index_charges_each_path_once():
    # one charge per variable of its whole path, raising at every limit with
    # the text and steps used of charging each heavy edge on its own
    for g in (build_zeros_rlslp(16), build_ek_grammar(4), deep_grammar(40)):
        ledger, want = Ledger(), Ledger()
        build_index(g, ledger)
        reference_build_index(g, want)
        assert ledger.steps == want.steps
        total = ledger.steps["access index"]
        variables = sum(not isinstance(rule, Terminal) for rule in g.rules.values())
        assert ledger.calls["access index"] == variables < want.calls["access index"] == total
        for limit in range(1, total + 2):
            got = _build_outcome(build_index, g, WorkBudget(limit=limit))
            assert got == _build_outcome(reference_build_index, g, WorkBudget(limit=limit)), limit
            assert got[0].startswith("raised") == (limit < total)


def test_budget_applies_to_scan():
    idx = build_index(build_ek_grammar(5))
    raises(ShapeTooLarge, full_scan, idx, WorkBudget(limit=8))


def test_descent_on_an_index_that_disagrees_with_its_grammar_stops():
    # the axiom's y0 moved below its expansion: a cell's step comes out 0,
    # so a descent without a bound would cycle forever; each call raises
    # access's refusal of the first cell it reaches in its order. Run in a
    # child so that a hang fails the test instead of stalling the suite
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
    assert r.stdout.splitlines() == [
        f"access index paths disagree with the grammar at cell {cell} after 1 hop(s)"
        for cell in ((2, 3), (2, 2), (2, 2))
    ], r.stdout


def test_a_descent_to_a_variable_with_no_path_raises_bad_param():
    # S1's path removed: cells (1, 3) and (1, 4) descend into S1 after one
    # hop, (1, 7) and (1, 8) after two, and every call that reaches one
    # refuses it
    idx = build_index(build_ek_grammar(3))
    bad = replace(idx, paths={v: p for v, p in idx.paths.items() if v != "S1"})
    message = "access index has no path of 'S1' at cell ({}, {}) after {} hop(s)"
    for y, x, hops in ((1, 3, 1), (1, 4, 1), (1, 7, 2), (1, 8, 2)):
        assert str(raises(BadParam, access, bad, y, x)) == message.format(y, x, hops)
    assert access(bad, 1, 1) == access(idx, 1, 1)
    exc = raises(BadParam, access_many, bad, [(1, 1), (1, 8), (1, 3)])
    assert str(exc) == message.format(1, 8, 2)
    # the scans stop where the cell-by-cell scan does, charging as much
    for scan, oracle in ((full_scan, reference_full_scan),
                         (hop_bound_check, lambda i, b: reference_scan(i, b, None))):
        got, want = WorkBudget(), WorkBudget()
        assert str(raises(BadParam, scan, bad, got)) == message.format(1, 3, 1)
        assert str(raises(BadParam, oracle, bad, want)) == message.format(1, 3, 1)
        assert got.used == want.used


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
