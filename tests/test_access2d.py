import random

from repet2d import (
    WorkBudget,
    access,
    build_bk_grammar,
    build_ek_grammar,
    build_index,
    build_zeros_rlslp,
    expand,
    full_scan,
    hop_bound,
    hop_bound_check,
)
from repet2d.accept import random_grammar, sample_rlslp, sample_slp
from repet2d.errors import DanglingVariable, OutOfBounds, ShapeTooLarge
from repet2d.grammar2d import Grammar2D, Horiz, Terminal

from util import (
    Ledger,
    raises,
    reference_access,
    reference_build_index,
    reference_full_scan,
    reference_histogram,
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


def test_index_and_scans_equal_the_class_switching_oracle():
    rng = random.Random(7)
    grammars = [build_ek_grammar(k) for k in range(1, 7)]
    grammars += [build_bk_grammar(k) for k in (1, 2)]
    grammars += [build_zeros_rlslp(n) for n in (2, 3, 16)]
    grammars += [sample_slp(), sample_rlslp()]
    grammars += [random_grammar(rng, allow_runs=i % 4 != 0) for i in range(200)]
    for g in grammars:
        got_ledger, want_ledger = Ledger(), Ledger()
        idx = build_index(g, got_ledger)
        want = reference_build_index(g, want_ledger)
        assert repr(idx) == repr(want), format(g)
        assert got_ledger.steps == want_ledger.steps
        for y in range(1, idx.rows + 1):
            for x in range(1, idx.cols + 1):
                assert access(idx, y, x) == reference_access(want, y, x), (y, x)
        got_ledger, want_ledger = Ledger(), Ledger()
        scan = full_scan(idx, got_ledger)
        assert repr(scan) == repr(reference_full_scan(want, want_ledger))
        assert got_ledger.steps == want_ledger.steps
        assert scan.histogram == reference_histogram(want)
        assert hop_bound_check(idx) == scan.max_hops


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


def test_build_index_validates():
    raises(
        DanglingVariable,
        build_index,
        Grammar2D("S", {"S": Horiz("S", "MISSING")}),
    )


def test_budget_applies_to_scan():
    idx = build_index(build_ek_grammar(5))
    raises(ShapeTooLarge, full_scan, idx, WorkBudget(limit=8))
