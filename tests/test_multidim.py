"""Checks that the d-dimensional layer agrees with the 2D implementation
wherever both apply, plus the counter-cube family and its grammar."""

import random

import numpy as np

from repet2d import bk, concat_h, concat_v, core2d, identity
from repet2d.errors import (
    AxisMismatch,
    BadParam,
    CycleDetected,
    DanglingVariable,
    DimMismatch,
    DuplicateRHS,
    ParseError,
    TooLarge,
)
from repet2d.core2d import ShapeBox, densest_shape, rank_windows
from repet2d.families import debruijn_bits
from repet2d.grammar2d import Terminal, build_bk_grammar, validate_grammar
from repet2d.measures import delta
from repet2d.multidim import (
    ConcatNd,
    GrammarNd,
    NdString,
    RunNd,
    bdk,
    build_bdk_grammar,
    concat_axis,
    delta_nd,
    expand_nd,
    factor_count_nd,
    format_nd,
    grammar_to_nd,
    parse_nd,
    read_nd,
    to_2d,
    to_nd,
    validate_nd,
    write_nd,
)

from util import (
    Ledger, iter_shape_labels, random_matrix, raises, reference_delta_nd, repetitive_cells,
)


def test_2d_embedding_is_inverse():
    rng = random.Random(50)
    for _ in range(30):
        m = random_matrix(rng, 5, 5, alphabet="abc")
        x = to_nd(m)
        assert x.ndim == 2 and x.dims == (m.rows, m.cols)
        assert to_2d(x) == m
        for y in range(1, m.rows + 1):
            for c in range(1, m.cols + 1):
                assert x.at((y, c)) == m.at(y, c)


def test_concat_axis_matches_2d_concats():
    rng = random.Random(51)
    for _ in range(25):
        a = random_matrix(rng, 4, 4)
        b = random_matrix(rng, 4, 4)
        if a.cols == b.cols:
            assert to_2d(concat_axis(to_nd(a), to_nd(b), 1)) == concat_v(a, b)
        else:
            raises(AxisMismatch, concat_axis, to_nd(a), to_nd(b), 1)
        if a.rows == b.rows:
            assert to_2d(concat_axis(to_nd(a), to_nd(b), 2)) == concat_h(a, b)
        else:
            raises(AxisMismatch, concat_axis, to_nd(a), to_nd(b), 2)
    a = to_nd(identity(2))
    raises(BadParam, concat_axis, a, a, 0)
    raises(BadParam, concat_axis, a, a, 3)
    one = NdString.from_tokens((2,), "01")
    raises(AxisMismatch, concat_axis, a, one, 1)


def test_concat_axis_checks_the_cap_before_it_concatenates(monkeypatch):
    a = NdString.from_tokens((2, 3), "abcabc")
    b = NdString.from_tokens((3, 3), "abcabcabc")
    calls = []
    concatenate = np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda *args, **kw: calls.append(1) or concatenate(*args, **kw))
    monkeypatch.setattr(core2d, "MAX_CELLS", 14)
    exc = raises(TooLarge, concat_axis, a, b, 1)
    assert str(exc) == "5x3 exceeds the 14-cell cap"
    assert not calls
    monkeypatch.setattr(core2d, "MAX_CELLS", 15)
    assert concat_axis(a, b, 1).dims == (5, 3) and calls


def test_grammar_validation_taxonomy():
    ok = GrammarNd(2, "S", {"S": ConcatNd(1, "A", "A"), "A": Terminal("x")})
    info = validate_nd(ok)
    assert info.size == 3 and info.dims == (2, 1)
    assert info.var_dims["A"] == (1, 1)
    raises(DanglingVariable, validate_nd,
           GrammarNd(2, "S", {"S": ConcatNd(1, "A", "B"), "A": Terminal("x")}))
    raises(CycleDetected, validate_nd,
           GrammarNd(2, "S", {"S": ConcatNd(1, "S", "A"), "A": Terminal("x")}))
    raises(DuplicateRHS, validate_nd,
           GrammarNd(2, "S", {"S": ConcatNd(1, "A", "B"),
                              "A": Terminal("x"), "B": Terminal("x")}))
    # joining along axis 1 requires equal extent on axis 2
    raises(DimMismatch, validate_nd,
           GrammarNd(2, "S", {"S": ConcatNd(1, "A", "B"), "A": Terminal("x"),
                              "B": ConcatNd(2, "C", "D"),
                              "C": Terminal("y"), "D": Terminal("z")}))
    raises(BadParam, validate_nd,
           GrammarNd(2, "S", {"S": RunNd(1, 1, "A"), "A": Terminal("x")}))
    raises(BadParam, validate_nd,
           GrammarNd(2, "S", {"S": ConcatNd(0, "A", "A"), "A": Terminal("x")}))
    raises(BadParam, validate_nd,
           GrammarNd(2, "S", {"S": ConcatNd(3, "A", "A"), "A": Terminal("x")}))
    raises(BadParam, validate_nd, GrammarNd(0, "S", {"S": Terminal("x")}))


def test_lifted_2d_grammars_expand_identically():
    from repet2d.grammar2d import build_ek_grammar, build_zeros_rlslp, expand

    for g2 in (build_bk_grammar(2), build_ek_grammar(4), build_zeros_rlslp(8)):
        gn = grammar_to_nd(g2)
        assert validate_nd(gn).size == validate_grammar(g2).size
        assert to_2d(expand_nd(gn)) == expand(g2)


def test_counter_cube_family():
    assert debruijn_bits(2) == [0, 0, 1, 1]
    row = bdk(1, 3)
    assert "".join(row.at((i,)) for i in range(1, 11)) == "0001011100"
    assert bdk(2, 2) == to_nd(bk(2))
    assert bdk(2, 3) == to_nd(bk(3))

    x = bdk(3, 2)
    assert x.dims == (5, 5, 5)
    bits = debruijn_bits(2)
    wrap = bits + bits[:1]
    for p1 in range(1, 6):
        for p2 in range(1, 6):
            for p3 in range(1, 6):
                want = 4 * wrap[p1 - 1] + 2 * wrap[p2 - 1] + wrap[p3 - 1]
                assert x.at((p1, p2, p3)) == str(want)
    # distinct side-k windows == window positions == (2^k)^d: every window
    # is a fresh combination of one k-window per axis of the bit row
    assert factor_count_nd(x, (2, 2, 2)) == 2 ** 6 == 4 ** 3
    assert factor_count_nd(bdk(2, 3), (3, 3)) == 2 ** 6 == 8 ** 2

    raises(BadParam, bdk, 0, 2)
    raises(BadParam, bdk, 2, 0)
    raises(BadParam, bdk, 4, 5)  # past the cell cap


def test_counter_cube_grammar():
    sizes = {}
    for d, k in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        g = build_bdk_grammar(d, k)
        info = validate_nd(g)
        side = 2 ** k + k - 1
        assert info.dims == (side,) * d
        assert expand_nd(g) == bdk(d, k)
        sizes[(d, k)] = info.size
    # each added dimension doubles the previous grammar and reuses the row rules
    for k in (2, 3):
        for d in (2, 3):
            if (d, k) in sizes:
                assert sizes[(d, k)] == 2 * sizes[(d - 1, k)] + sizes[(1, k)] - 2
    assert sizes[(3, 2)] == 64
    assert len(build_bdk_grammar(2, 3).rules) == len(build_bk_grammar(3).rules)


def test_delta_agrees_with_2d():
    rng = random.Random(52)
    for _ in range(20):
        m = random_matrix(rng, 8, 8)
        assert delta_nd(to_nd(m)) == delta(m).value
    assert delta_nd(bdk(3, 2)) == 8


def test_pruned_delta_nd_equals_full_enumeration():
    rng = random.Random(54)
    cases = [bdk(2, 2), bdk(3, 1), to_nd(identity(6))]
    for trial in range(80):
        d = 1 + trial % 4
        dims = tuple(rng.randint(1, (12, 7, 4, 3)[d - 1]) for _ in range(d))
        alphabet = ("0", "01", "0123456789abcdef")[trial % 3]
        cells = [rng.choice(alphabet) for _ in range(int(np.prod(dims)))]
        cases.append(NdString.from_tokens(dims, cells))
    # periodic inputs, with and without one defect, and blocky ones, where
    # the determinism stop ends chains along every axis
    for trial in range(90):
        d = 2 + trial % 2
        dims = tuple(rng.randint(1, (10, 4)[d - 2]) for _ in range(d))
        kind = ("periodic", "defect", "blocky")[trial // 2 % 3]
        cases.append(NdString.from_tokens(dims, repetitive_cells(rng, dims, kind)))
    for x in cases:
        got_ledger, ref_ledger = Ledger(), Ledger()
        want = reference_delta_nd(x, ref_ledger)
        assert delta_nd(x, got_ledger) == want[0]
        assert got_ledger.used <= ref_ledger.used
        value, shape, _ = densest_shape(x._grid, False, Ledger(), ("window ranking",) * x.ndim)
        assert (value, shape) == want


def test_shape_labels_agree_with_2d():
    rng = random.Random(53)
    for _ in range(10):
        m = random_matrix(rng, 5, 5, alphabet="ab")
        x = to_nd(m)
        walk = rank_windows(x._grid, ShapeBox(x.dims), Ledger(), ("window ranking",) * 2)
        nd = {s: lab.copy() for s, lab, _ in walk}
        shapes = sorted(nd)
        assert shapes == [(a, b) for a in range(1, m.rows + 1) for b in range(1, m.cols + 1)]
        for k1, k2, lab in iter_shape_labels(m, shapes):
            assert np.array_equal(lab, nd[(k1, k2)])


def test_text_roundtrip():
    rng = random.Random(54)
    for _ in range(20):
        d = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 4) for _ in range(d))
        n = 1
        for v in dims:
            n *= v
        toks = [rng.choice("ab#") for _ in range(n)]
        x = NdString.from_tokens(dims, toks)
        assert parse_nd(format_nd(x)) == x
    t = format_nd(bdk(2, 2))
    assert t.splitlines()[0] == "nd 2 5 5"

    for bad in (
        "",
        "2d 2 2\na b\nc d\n",
        "nd 2 2\na b\n",            # header says 2 dims, lists one
        "nd 2 2 2\na b c\n",        # short by one token
        "nd 1 2\na b c\n",          # one too many
        "nd 1 2\n# note\na b\n",    # no comment lines in this format
        "nd 0\n\n",
    ):
        raises(ParseError, parse_nd, bad)


def test_file_io(tmp_path):
    p = tmp_path / "x.nd"
    x = bdk(2, 2)
    write_nd(p, x)
    assert read_nd(p) == x


def test_from_tokens_validation():
    raises(ParseError, NdString.from_tokens, (2, 2), "abc")
    raises(BadParam, NdString.from_tokens, (2, 0), "")
    raises(BadParam, NdString.from_tokens, (), "a")
