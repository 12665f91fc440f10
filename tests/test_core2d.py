import ast
import random
from itertools import product
from pathlib import Path

import numpy as np

from repet2d import (
    Matrix2D,
    concat_h,
    concat_v,
    distinct_factors,
    factor_count,
    format_matrix,
    parse_matrix,
    submatrix,
)
from repet2d.errors import (
    BadParam,
    ColMismatch,
    OutOfBounds,
    ParseError,
    RowMismatch,
)

from repet2d import core2d
from repet2d.budget import WorkBudget
from repet2d.core2d import (
    ShapeBox,
    WindowIds,
    _one_way,
    _pair_rank,
    rank_windows,
)
from repet2d.multidim import NdString

from util import (
    Ledger,
    _pair_rank as unique_pair_rank,
    iter_shape_labels,
    mat,
    naive_factor_count,
    naive_factors,
    random_matrix,
    raises,
    reference_shape_labels,
    reference_window_ids,
)


def test_from_tokens_basics():
    m = mat("ab", "ba")
    assert (m.rows, m.cols, m.area) == (2, 2, 4)
    assert m.alphabet == ("a", "b")
    assert m.at(1, 1) == "a" and m.at(2, 1) == "b"
    assert m.tokens() == (("a", "b"), ("b", "a"))
    assert m.row_tokens(2) == ("b", "a")
    # values are normalized to str
    assert Matrix2D.from_tokens([[0, 1]]) == mat("01")


def test_from_tokens_rejects_bad_input():
    # an empty string is a bad parameter, as for NdString, not a size cap
    for grid in ([], [[]]):
        exc = raises(BadParam, Matrix2D.from_tokens, grid)
        assert str(exc) == "a 2D string must have at least one cell"
    raises(BadParam, NdString.from_tokens, (), [])
    raises(RowMismatch, Matrix2D.from_tokens, [["a", "b"], ["a"]])
    raises(ParseError, Matrix2D.from_tokens, [["a b"]])
    raises(ParseError, Matrix2D.from_tokens, [[""]])
    raises(OutOfBounds, mat("01").at, 1, 3)
    raises(OutOfBounds, mat("01").at, 0, 1)


def test_equality_is_by_token_grid():
    # same pattern over different concrete tokens must differ,
    # same tokens via different input types must agree
    assert mat("01") != mat("ab")
    assert Matrix2D.from_tokens([["7", "7", "8"]]) == Matrix2D.from_tokens([[7, 7, 8]])


def test_submatrix_and_concat():
    m = mat("0123", "4567", "89ab")
    assert submatrix(m, 2, 2, 3, 4) == mat("567", "9ab")
    assert submatrix(m, 1, 1, 3, 4) == m
    raises(OutOfBounds, submatrix, m, 2, 2, 4, 4)
    raises(OutOfBounds, submatrix, m, 2, 3, 2, 2)

    a, b = mat("01", "23"), mat("9", "9")
    assert concat_h(a, b) == mat("019", "239")
    assert concat_v(mat("01"), mat("55")) == mat("01", "55")
    raises(RowMismatch, concat_h, a, mat("9"))
    raises(ColMismatch, concat_v, a, mat("9"))


def test_concat_merges_alphabets():
    left = mat("aa")
    right = mat("zz")
    glued = concat_h(left, right)
    assert glued.alphabet == ("a", "z")
    assert glued.tokens() == (("a", "a", "z", "z"),)


def test_factor_count_against_naive_oracle():
    rng = random.Random(20260814)
    for _ in range(150):
        m = random_matrix(rng, 5, 5, "01" if rng.random() < 0.7 else "abc")
        k1 = rng.randint(1, m.rows)
        k2 = rng.randint(1, m.cols)
        assert factor_count(m, k1, k2) == naive_factor_count(m, k1, k2), (
            f"{m}\nshape {k1}x{k2}"
        )
    raises(OutOfBounds, factor_count, mat("01"), 2, 1)


def test_labels_equal_the_2d_reference():
    # the d-axis ranking must give the former 2D ranking's ids, order and
    # budget charges, for all shapes and for the k x 1 / 1 x k subset
    rng = random.Random(71)
    for _ in range(40):
        m = random_matrix(rng, 7, 7, "01" if rng.random() < 0.6 else "abcd")
        every = [(a, b) for a in range(1, m.rows + 1) for b in range(1, m.cols + 1)]
        lines = sorted({(k, 1) for k in range(1, m.rows + 1)}
                       | {(1, k) for k in range(1, m.cols + 1)})
        for wanted in (every, lines, [(m.rows, m.cols)]):
            got_ledger, ref_ledger = Ledger(), Ledger()
            got = list(iter_shape_labels(m, wanted, got_ledger))
            ref = list(reference_shape_labels(m, wanted, ref_ledger))
            assert [s[:2] for s in got] == [s[:2] for s in ref]
            for (_, _, lab), (_, _, want) in zip(got, ref):
                assert np.array_equal(lab, want)
            assert got_ledger.steps == ref_ledger.steps


def test_window_ids_follow_token_order_and_equal_the_ranking(monkeypatch):
    # every pair of windows of one shape compares by label as by token grid
    # (equal iff equal, smaller iff smaller), and each shape's labels are
    # iter_shape_labels', however the shapes are asked for; labels and
    # counts equal the lazily ranked table's, and neither charges a step
    charged = []
    charge = WorkBudget.charge
    monkeypatch.setattr(
        WorkBudget, "charge", lambda self, steps, *what: charged.append(steps) or charge(self, steps, *what)
    )
    rng = random.Random(29)
    cases = [
        random_matrix(rng, 5, 5, "abc"[: rng.randint(1, 3)]) for _ in range(200)
    ]
    cases += [
        Matrix2D.from_tokens([[rng.choice("01") for _ in range(n)]])
        for n in (1, 2, 7, 30, 64)
    ]
    for m in cases:
        grid = m.tokens()
        charged.clear()
        windows, reference = WindowIds(m), reference_window_ids(m)
        shapes = list(ShapeBox((m.rows, m.cols)))
        rng.shuffle(shapes)
        for h, w in shapes:
            assert windows.labels(h, w) == reference.labels(h, w)
            assert windows.count(h, w) == reference.count(h, w)
        assert sum(charged) == 0
        ranked = {(h, w): lab for h, w, lab in iter_shape_labels(m, ShapeBox((m.rows, m.cols)))}
        for h, w in shapes:
            labels = windows.labels(h, w)
            assert labels == ranked[h, w].tolist()
            assert windows.count(h, w) == int(ranked[h, w].max()) + 1
            found = [
                (labels[i][j], tuple(row[j : j + w] for row in grid[i : i + h]))
                for i in range(m.rows - h + 1)
                for j in range(m.cols - w + 1)
            ]
            for (a, x), (b, y) in product(found, repeat=2):
                assert (a < b, a == b) == (x < y, x == y), (m, h, w)


def test_pair_rank_paths_equal_the_unique_oracle(monkeypatch):
    # ranges below, at and above the counting threshold, 1 to 1000 pairs,
    # contiguous arrays and strided slices like the ranking passes take; both
    # paths give the sorted distinct pair ids, and the determinism test read
    # off them agrees with the pairs themselves
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    rng = np.random.default_rng(11)
    limit = core2d._COUNTING_RANGE
    answers = set()
    for n in (1, 2, 7, 64, 1000):
        for extra in (-1, 0, 1):
            span = limit * n + extra
            for a_range, b_range in ((span, 1), (1, span), (span // 3, 3), (5, span // 5)):
                if min(a_range, b_range) < 1:
                    continue
                whole = rng.integers(0, (a_range, b_range), size=(2 * n, 2))
                for a, b in ((whole[:n, 0], whole[:n, 1]),
                             (whole[::2, 0], whole[1::2, 1]),
                             (whole[:, 0].reshape(n, 2)[:, :1], whole[:, 1].reshape(n, 2)[:, 1:])):
                    sorts.clear()
                    labels, values = _pair_rank(a, a_range, b, b_range)
                    path = len(sorts)
                    assert path == (a_range * b_range > limit * n)
                    assert labels.dtype == np.int64
                    assert np.array_equal(labels, unique_pair_rank(a, b))
                    pairs = sorted(set(zip(a.ravel().tolist(), b.ravel().tolist())))
                    assert values.tolist() == [x * b_range + y for x, y in pairs]
                    lefts = [x for x, _ in pairs]
                    answer = _one_way(values, b_range)
                    assert answer == (len(set(lefts)) == len(lefts))
                    answers.add((path, answer))
    assert answers == {(0, False), (0, True), (1, False), (1, True)}


def test_the_lazy_box_equals_the_explicit_list():
    # the same (shape, labels) sequence and step ledger for every shape of
    # 1 to 4 axes and for cubes, with shapes listed in another order
    rng = random.Random(72)
    for trial in range(24):
        d = 1 + trial % 4
        dims = tuple(rng.randint(1, (9, 6, 4, 3)[d - 1]) for _ in range(d))
        grid = np.array([rng.randrange(1 + trial % 3) for _ in range(np.prod(dims))])
        grid = grid.reshape(dims)
        what = [f"axis {i}" for i in range(d)]
        every = list(product(*(range(1, n + 1) for n in dims)))
        cubes = [(k,) * d for k in range(min(dims), 0, -1)]
        for box, listed in ((ShapeBox(dims), every), (ShapeBox(dims, True), cubes)):
            got_ledger, want_ledger = Ledger(), Ledger()
            got = list(rank_windows(grid, box, got_ledger, what))
            want = list(rank_windows(grid, listed, want_ledger, what))
            assert [s for s, _, _ in got] == [s for s, _, _ in want] == list(box)
            for (_, lab, count), (_, ref, _) in zip(got, want):
                assert lab.dtype == np.int64 and np.array_equal(lab, ref)
                assert count == int(ref.max()) + 1
            assert got_ledger.steps == want_ledger.steps


def test_pair_rank_is_called_only_by_the_ranking_walk():
    # one window-ranking loop: every ranking pass in the library goes
    # through rank_windows
    tree = ast.parse(Path(core2d.__file__).read_text())
    callers = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_pair_rank"
    ]
    assert callers == ["rank_windows"]


def test_distinct_factors_contents_and_occurrences():
    rng = random.Random(7)
    for trial in range(120):
        m = random_matrix(rng, 6, 6, ("01", "012", "0123456789abcdef")[trial % 3])
        k1 = rng.randint(1, m.rows)
        k2 = rng.randint(1, m.cols)
        expected = naive_factors(m, k1, k2)
        got = distinct_factors(m, k1, k2)
        assert len(got) == len(expected)
        for f in got:
            assert f.shape.k1 == k1 and f.shape.k2 == k2
            assert f.content in expected
            # occurrences must be exactly the naive list, in row-major order
            assert list(f.occurrences) == expected[f.content]
    # factors are reported by first occurrence in row-major order
    firsts = [f.occurrences[0] for f in distinct_factors(mat("010", "101"), 1, 2)]
    assert firsts == sorted(firsts)


def test_distinct_factors_of_a_larger_matrix_equal_the_naive_ones():
    rng = random.Random(24)
    m = Matrix2D.from_tokens([[rng.choice("ab") for _ in range(24)] for _ in range(24)])
    for k1, k2 in ((1, 1), (3, 3), (2, 5), (24, 1), (7, 24)):
        expected = naive_factors(m, k1, k2)
        got = distinct_factors(m, k1, k2)
        assert [(f.content, list(f.occurrences)) for f in got] == sorted(
            expected.items(), key=lambda item: item[1][0]
        )


def test_text_roundtrip():
    rng = random.Random(99)
    for _ in range(30):
        m = random_matrix(rng, 5, 5, "ab#")
        assert parse_matrix(format_matrix(m)) == m
    text = format_matrix(mat("01"))
    assert text == "2d 1 2\n0 1\n"


def test_parse_matrix_comments_and_errors():
    # comments: before the header always; after it only when the token
    # count differs from the column count
    assert parse_matrix("# note\n2d 1 2\n# a comment\n0 1\n#\n") == mat("01")
    # a '#' line with exactly the expected token count is data, not comment
    m = parse_matrix("2d 2 2\n# x\na b\n")
    assert m.at(1, 1) == "#" and m.at(1, 2) == "x" and m.at(2, 1) == "a"

    raises(ParseError, parse_matrix, "")
    raises(ParseError, parse_matrix, "1 2\n0 1\n")
    raises(ParseError, parse_matrix, "2d 0 2\n")
    raises(ParseError, parse_matrix, "2d one 2\n0 1\n")
    raises(ParseError, parse_matrix, "2d 1 2\n0\n")
    raises(ParseError, parse_matrix, "2d 1 2\n0 1\nextra row\n")
    raises(ParseError, parse_matrix, "2d 2 2\n0 1\n")
