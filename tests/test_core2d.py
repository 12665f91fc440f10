import ast
import pickle
import random
import sys
import tracemalloc
from itertools import combinations, product
from math import prod
from pathlib import Path

import numpy as np

from repet2d import (
    Matrix2D,
    bk,
    build_ek_grammar,
    concat_h,
    concat_v,
    decode,
    distinct_factors,
    ek,
    expand,
    factor_count,
    format_matrix,
    identity,
    identity_scheme,
    parse_matrix,
    small_instances,
    submatrix,
)
from repet2d.errors import (
    BadParam,
    ColMismatch,
    OutOfBounds,
    ParseError,
    RowMismatch,
    TooLarge,
)

from repet2d import core2d
from repet2d.budget import WorkBudget
from repet2d.core2d import (
    MAX_CELLS,
    ShapeBox,
    WindowIds,
    _one_way,
    _pair_rank,
    encode_tokens,
    rank_windows,
)
from repet2d.linearize import phlin, rlin, scan
from repet2d.multidim import (
    NdString,
    bdk,
    build_bdk_grammar,
    concat_axis,
    expand_nd,
    to_2d,
    to_nd,
)

from util import (
    Ledger,
    TupleMatrix2D,
    TupleNdString,
    _pair_rank as unique_pair_rank,
    dict_encode_tokens,
    iter_shape_labels,
    mat,
    naive_factor_count,
    naive_factors,
    random_matrix,
    raises,
    reference_dense_rank,
    reference_shape_labels,
    reference_window_ids,
    tokens_concat_h,
    tokens_concat_v,
    tokens_submatrix,
    unique_dense_rank,
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


class Loud(str):
    """A str subclass that prints otherwise than its value."""

    def __str__(self):
        return "loud"


class Quiet(str):
    """A str subclass that prints as its value."""


def _outcome(encode, tokens):
    """(ids, alphabet) of an encoding, the ids as a tuple of ints, or the
    ParseError it raises. The library returns a one-axis array of
    ``id_dtype(len(alphabet))``, the oracle a tuple of ints."""
    try:
        ids, alphabet = encode(tokens)
    except ParseError as exc:
        return "ParseError", str(exc)
    if encode is encode_tokens:
        assert type(ids) is np.ndarray and ids.ndim == 1, type(ids)
        assert ids.dtype == core2d.id_dtype(len(alphabet)), (ids.dtype, len(alphabet))
        ids = tuple(ids.tolist())
    assert type(ids) is tuple and all(type(i) is int for i in ids)
    return ids, alphabet


# every one-character letter of U+0000..U+00FF that is a valid token, and
# every one that is whitespace
LATIN1 = [chr(c) for c in range(256) if chr(c).split() == [chr(c)]]
SPACES = [chr(c) for c in range(256) if chr(c).split() != [chr(c)]]


def test_encode_tokens_equals_the_dict_oracle():
    named = [f"t{i:03d}" for i in range(257)]
    wide = [chr(0x100 + i) for i in range(257)]
    cases = [
        list("abba"),
        [0, 1, 1, 0, 10],
        [1, "1", True, 1.0, "True", 1],
        [True, 1, "1.0", 1.0],
        ["a", Loud("a"), "b"],
        [Loud("b"), "b", "a"],
        ["a", Quiet("a"), Quiet("c")],
        ["ab", "a", "ba", "ab", "b"],
        named[:256],
        named,
        wide[:256],
        wide,
        LATIN1,
        LATIN1 + ["\u0100"],
        ["é", "e", "é"],
        ["€", "e", "€"],
        ["é", "€", "z"],
        [],
        ["a", "b c", "", "d"],
        ["a", "", "b c"],
        ["é", "x\ty", "€"],
        [1, "a b", 2],
        ["\xa0"],
    ]
    # more tokens than the one-character byte path needs, and as many as it
    # skips; among them the ones it must refuse or report
    cut = core2d._BYTE_PATH_MIN
    assert len(SPACES) == 12 and "\n" in SPACES
    for body in (list("ab" * cut), list("ba" * (cut // 2)), (LATIN1 * 2)[: cut + 1], LATIN1 * 3):
        for odd in (["", "ab"], ["ab", ""], ["a\nb", "c"], ["\n"], ["", "\n\n"], ["\xff", "Ā"], ["Ā"],
                    ["é", "\xff"], [Loud("a")], [Quiet("a"), Quiet("ÿ")], [1, True], []):
            cases += [odd + body, body + odd, body[:40] + odd + body[40:]]
        for space in SPACES:
            cases += [[space] + body, body + [space], body[:33] + [space] + body[33:] + [space]]
        cases.append(body[:40] + [SPACES[-1]] + body[40:] + [SPACES[0]])
    rng = random.Random(41)
    pool = ["a", "b", "é", "€", "ab", 0, 1, 2.5, True, Loud("a"), Quiet("b"), "", "a b"]
    for _ in range(300):
        k = rng.randint(1, 6)
        cases.append([rng.choice(pool[: rng.randint(1, len(pool))]) for _ in range(k)])
    letters = ["a", "b", "ÿ", "\x00", 7, Quiet("c")] + SPACES + ["Ā", "ab", Loud("d")]
    for _ in range(200):
        k = rng.randint(cut - 2, 3 * cut)
        pool = letters[: rng.choice([2, 4, 6, 8, len(letters)])]
        cases.append([rng.choice(pool) if rng.random() < 0.05 else rng.choice("xyz") for _ in range(k)])
    for tokens in cases:
        for order in (tokens, tokens[::-1]):
            got = _outcome(encode_tokens, iter(order))
            assert got == _outcome(dict_encode_tokens, order), order


def test_one_character_grids_skip_the_per_token_dict():
    # a 512 x 512 grid of one-character tokens finds its letters through
    # bytes, with no dict of its tokens
    rng = random.Random(44)
    grid = [[rng.choice("01") for _ in range(512)] for _ in range(512)]
    called = []

    def record(frame, event, arg):
        if event == "c_call":
            called.append(arg.__name__)

    sys.setprofile(record)
    try:
        m = Matrix2D.from_tokens(grid)
    finally:
        sys.setprofile(None)
    assert "join" in called and "fromkeys" not in called, sorted(set(called))
    assert (m.cells, m.alphabet) == dict_encode_tokens(t for row in grid for t in row)


def test_from_tokens_reports_the_first_bad_token_before_a_row_mismatch(monkeypatch):
    # a bad token in a row before the short one wins; one in the short row
    # itself does not, as with the dict encoding
    grids = [
        [["a", "b"], ["c"]],
        [["a", "b c"], ["c"]],
        [["a", "b"], [""]],
        [["a", "b"], ["€", "é"], ["x y", 1]],
        [[1, True], ["1", 1.0]],
        [["é", "x"], ["x", "é", "z"]],
        [["a"] * 200, ["b"] * 199 + ["\t"], ["c"]],
        [["a"] * 200, ["b"] * 200, ["c", "\t"]],
    ]
    seen = []

    def outcome():
        out = []
        for grid in grids:
            try:
                m = Matrix2D.from_tokens(grid)
                out.append((m, m.tokens()))
            except (ParseError, RowMismatch) as exc:
                out.append((type(exc).__name__, str(exc)))
        return out

    seen.append(outcome())
    monkeypatch.setattr(core2d, "encode_tokens", dict_encode_tokens)
    seen.append(outcome())
    assert seen[0] == seen[1]
    assert {o[0] for o in seen[0] if isinstance(o[0], str)} == {"ParseError", "RowMismatch"}
    # past 256 one-character tokens the rows are joined in place, and the
    # first bad letter still wins, over a later one and over a short row
    big = [["a"] * 20 for _ in range(15)]
    big[3][5], big[9][2] = "\t", " "
    for grid in (big, big + [["a"]]):
        assert str(raises(ParseError, Matrix2D.from_tokens, grid)) == "invalid token '\\t'"


def test_cells_read_back_on_both_sides_of_256_letters():
    # a grid, its rows and its id array read the cells alike with 255, 256
    # and 257 letters (the last one does not fit a byte)
    rng = random.Random(43)
    for letters in (2, 255, 256, 257):
        alphabet = [f"t{i:03d}" for i in range(letters)]
        cols = rng.randint(1, 24)
        rows = -(-letters // cols) + rng.randint(0, 3)
        flat = alphabet + [rng.choice(alphabet) for _ in range(rows * cols - letters)]
        rng.shuffle(flat)
        grid = [flat[r * cols: (r + 1) * cols] for r in range(rows)]
        m = Matrix2D.from_tokens(grid)
        assert len(m.alphabet) == letters
        assert m.tokens() == tuple(map(tuple, grid))
        assert all(m.row_tokens(i) == tuple(grid[i - 1]) for i in range(1, rows + 1))
        assert m._grid.dtype == np.int64 and not m._grid.flags.writeable
        assert m._grid.tolist() == [list(m.cells[r * cols: (r + 1) * cols]) for r in range(rows)]
        x = NdString((rows, cols), m.cells, m.alphabet)
        assert x.tokens_flat() == sum(map(tuple, grid), ())
        assert x._grid.dtype == np.int64 and x._grid.tolist() == m._grid.tolist()


def _same_as_oracle(x, ref):
    """x, over a read-only id array, stores what the tuple-backed oracle
    ref does: its cells, repr (but for the class name) and hash, and
    pickling keeps them all."""
    assert type(x.cells) is tuple and x.cells == ref.cells
    assert x.alphabet == ref.alphabet
    assert repr(x) == repr(ref).replace("Tuple", "", 1)
    assert hash(x) == hash(ref)
    assert x.ids.shape == x.dims and x.ids.dtype == core2d.id_dtype(len(x.alphabet))
    assert not x.ids.flags.writeable
    y, ref_y = pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(ref))
    assert type(y) is type(x) and y == x and ref_y == ref
    assert repr(y) == repr(x) and hash(y) == hash(ref_y)
    assert not y.ids.flags.writeable


def test_strings_over_an_id_array_equal_the_tuple_backed_oracle():
    # on the families, bdk cubes and seeded random grids of 1 to 300 letters
    # (past 256 the ids are int32), in 1 to 3 axes, built from tokens or
    # from a tuple of cells
    rng = random.Random(49)
    pairs = [(m, TupleMatrix2D.from_tokens(m.tokens())) for _, m in small_instances(6, 8)]
    pairs += [(m, TupleMatrix2D.from_tokens(m.tokens())) for m in (identity(64), ek(7), bk(3))]
    for d, k in ((1, 3), (2, 2), (3, 1), (2, 3), (3, 2)):
        x = bdk(d, k)
        pairs.append((x, TupleNdString.from_tokens(x.dims, x.tokens_flat())))
    for letters in (1, 2, 3, 16, 255, 256, 257, 300):
        alphabet = list("0123456789abcdef"[:letters]) if letters <= 16 else [f"t{i:03d}" for i in range(letters)]
        for ndim in (1, 2, 3, 2):
            dims = [rng.randint(1, 4) for _ in range(ndim - 1)]
            dims.append(-(-letters // prod(dims)) + rng.randint(0, 3))
            rng.shuffle(dims)
            flat = alphabet + [rng.choice(alphabet) for _ in range(prod(dims) - letters)]
            rng.shuffle(flat)
            if ndim == 2:
                grid = [flat[r * dims[1] : (r + 1) * dims[1]] for r in range(dims[0])]
                m = Matrix2D.from_tokens(grid)
                pairs.append((m, TupleMatrix2D.from_tokens(grid)))
                pairs.append((Matrix2D(*dims, m.cells, m.alphabet), pairs[-1][1]))
            else:
                x = NdString.from_tokens(dims, flat)
                pairs.append((x, TupleNdString.from_tokens(dims, flat)))
                pairs.append((NdString(x.dims, x.cells, x.alphabet), pairs[-1][1]))
    for x, ref in pairs:
        _same_as_oracle(x, ref)
    # equal exactly where the oracles are, across classes, dims and
    # alphabets; the pairs hold equal strings built in different ways
    for (x, ref), (y, ref_y) in product(pairs[::3] + pairs[1::7], repeat=2):
        assert (x == y) == (ref == ref_y) and (x != y) == (ref != ref_y), (x, y)


def test_strings_hold_no_cells_tuple_until_it_is_read():
    # every producer writes the id array; a cell or token read builds no
    # tuple, and the tuple, once read, is kept
    rng = random.Random(50)
    grid = [[rng.choice("ab") for _ in range(24)] for _ in range(16)]
    m = Matrix2D.from_tokens(grid)
    x = NdString.from_tokens((2, 3, 4), [rng.choice("xyz") for _ in range(24)])
    made = {
        "decode": decode(identity_scheme(64)),
        "expand": expand(build_ek_grammar(5)),
        "expand_nd": expand_nd(build_bdk_grammar(2, 2)),
        "from_tokens": m,
        "from_tokens, few tokens": Matrix2D.from_tokens([["b", "a"], ["a", "c"]]),
        "from_tokens, many letters": Matrix2D.from_tokens([[f"t{i}" for i in range(300)]]),
        "NdString.from_tokens": x,
        "rlin": rlin(m),
        "scan": scan(identity(16), "ds"),
        "to_nd": to_nd(m),
        "to_2d": to_2d(to_nd(m)),
        "concat_axis": concat_axis(x, x, 2),
        "submatrix": submatrix(m, 2, 3, 9, 20),
        "identity": identity(8),
    }
    for name, s in made.items():
        assert "cells" not in s.__dict__, name
        if isinstance(s, Matrix2D):
            s.at(s.rows, s.cols), s.row_tokens(1), s.tokens(), str(s)
        else:
            s.at(s.dims), s.tokens_flat()
        s._grid, s.area
        assert "cells" not in s.__dict__, name
        cells = s.cells
        assert s.__dict__["cells"] is cells and s.cells is cells, name
        assert cells == tuple(s.ids.ravel().tolist()), name


def test_one_character_build_holds_no_tuple_or_intp_copy():
    # a 1024 x 1024 build of one-character tokens reads its letters through
    # a 256-entry mark, not an intp copy of them (8 MB), and keeps one byte a
    # cell, not a tuple of the cells (8 MB). It joins the rows in place and
    # counts the tokens' types as it goes: a row-major token list (8 MB) and
    # a list of one type a token (8 MB) made the peak 16.9 MB; the text of
    # the joined rows and its bytes remain (6.3 MB)
    rng = random.Random(51)
    grid = [[rng.choice("01") for _ in range(1024)] for _ in range(1024)]
    Matrix2D.from_tokens(grid[:2])
    tracemalloc.start()
    try:
        m = Matrix2D.from_tokens(grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert held < 2 << 20, held
    assert "cells" not in m.__dict__ and m.row_tokens(7) == tuple(grid[6])


def test_submatrix_slices_the_id_array():
    # a factor equals the one cut out of the whole token grid, on the
    # families and on seeded grids, every rectangle of the small ones
    rng = random.Random(52)
    inputs = [m for _, m in small_instances(4, 5)] + [identity(9), ek(4), bk(2)]
    inputs += [random_matrix(rng, 6, 6, alphabet) for alphabet in ("01", "abc", "0123456789abcdef") for _ in range(4)]
    many = Matrix2D.from_tokens([[f"t{rng.randrange(300)}" for _ in range(30)] for _ in range(20)])
    for m in inputs + [many]:
        if m.area <= 36:
            rects = [(i1, j1, i2, j2) for i1, i2 in combinations(range(1, m.rows + 1), 2)
                     for j1, j2 in combinations(range(1, m.cols + 1), 2)]
            rects += [(i, j, i, j) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)]
        else:
            rects = []
            for _ in range(60):
                i1, i2 = sorted(rng.randint(1, m.rows) for _ in range(2))
                j1, j2 = sorted(rng.randint(1, m.cols) for _ in range(2))
                rects.append((i1, j1, i2, j2))
        for rect in rects:
            got = submatrix(m, *rect)
            assert repr(got) == repr(tokens_submatrix(m, *rect)), (str(m), rect)
            assert not np.shares_memory(got.ids, m.ids), rect
    # its cost follows the factor: a 2 x 2 corner of a 1024 x 1024 matrix
    # builds no token grid (8 MB of rows before)
    big = identity(1024)
    tracemalloc.start()
    try:
        corner = submatrix(big, 1, 1, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corner == mat("10", "01") and peak < 1 << 16, peak


def test_window_ids_refuse_a_table_over_the_cap():
    # (r(r+1)/2)(c(c+1)/2) labels: 4,326,400 for 64x64 (under the cap),
    # 68,161,536 for 128x128; a 1 x n string has n(n+1)/2
    rng = random.Random(47)
    for rows, cols in ((128, 128), (1, 5793), (400, 25)):
        assert rows * (rows + 1) // 2 * (cols * (cols + 1) // 2) > MAX_CELLS
        m = Matrix2D.from_tokens([[rng.choice("01") for _ in range(cols)] for _ in range(rows)])
        tracemalloc.start()
        try:
            exc = raises(TooLarge, WindowIds, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc).startswith(f"the window ids of a {rows}x{cols} matrix are ")
        assert peak < 1 << 20, peak


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


def test_concat_checks_the_cell_cap_before_it_concatenates(monkeypatch):
    # a result over the cap raises TooLarge before the id arrays are
    # concatenated; one at the cap is built as before
    a, b = mat("012", "345"), mat("67", "89")
    calls = []
    concatenate = np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda *args, **kw: calls.append(1) or concatenate(*args, **kw))
    monkeypatch.setattr(core2d, "MAX_CELLS", 9)
    assert str(raises(TooLarge, concat_h, a, b)) == "2x5 exceeds the 9-cell cap"
    assert str(raises(TooLarge, concat_v, a, a)) == "4x3 exceeds the 9-cell cap"
    assert not calls
    monkeypatch.setattr(core2d, "MAX_CELLS", 12)
    assert concat_h(a, b) == mat("01267", "34589") and concat_v(a, a).rows == 4 and calls


def test_concat_joins_the_id_arrays():
    # the concatenations equal the ones that joined token grids, in repr and
    # alphabet, on the families and on seeded grids (alphabets that overlap,
    # that are disjoint, and that merge past 256 letters)
    rng = random.Random(53)
    inputs = [m for _, m in small_instances(4, 5)] + [identity(9), ek(4), bk(2)]
    inputs += [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), alphabet)
                for alphabet in ("01", "abc", "0123456789abcdef") for _ in range(12)]
    inputs += [Matrix2D.from_tokens([[f"{tag}{rng.randrange(200)}" for _ in range(20)] for _ in range(12)])
               for tag in "tu"]
    pairs = 0
    for a, b in product(inputs, repeat=2):
        for glue, oracle, agree in ((concat_h, tokens_concat_h, a.rows == b.rows),
                                    (concat_v, tokens_concat_v, a.cols == b.cols)):
            if agree:
                got, want = glue(a, b), oracle(a, b)
                assert got == want and repr(got) == repr(want), (str(a), str(b))
                assert got.alphabet == want.alphabet and got.ids.dtype == want.ids.dtype
                pairs += 1
    assert pairs > 500, pairs
    # no token grid is built: 13.6 MB and 60 ms through the token grids
    left = identity(512)
    tracemalloc.start()
    try:
        glued = concat_h(left, left)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert glued == tokens_concat_h(left, left) and peak < 2 << 20, peak


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


def _counting_limit(n):
    """The largest pair-id range ``_dense_rank`` counts for ``n`` pairs: 32
    times the pairs up to a range of 2^17, that range up to 16,384 pairs, 8
    times the pairs from there."""
    return max(8 * n, min(32 * n, 1 << 17))


def test_pair_rank_paths_equal_the_unique_oracle(monkeypatch):
    # ranges below, at and above the counting limit, 1 to 20,000 pairs,
    # contiguous arrays and strided slices like the ranking passes take; both
    # paths give the sorted distinct pair ids, and the determinism test read
    # off them agrees with the pairs themselves. Only the counting path calls
    # np.zeros (its table) and only the wide-key fallback np.unique
    calls = []
    for name in ("zeros", "unique"):

        def spy(*args, _call=getattr(np, name), _name=name, **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)

    def ranked(a, a_range, b, b_range):
        calls.clear()
        labels, values = _pair_rank(a, a_range, b, b_range)
        path = calls[:]
        assert labels.dtype == np.int64
        assert np.array_equal(labels, unique_pair_rank(a, b))
        pairs = sorted(set(zip(a.ravel().tolist(), b.ravel().tolist())))
        assert values.tolist() == [x * b_range + y for x, y in pairs]
        lefts = [x for x, _ in pairs]
        answer = _one_way(values, b_range)
        assert answer == (len(set(lefts)) == len(lefts))
        return path, answer

    rng = np.random.default_rng(11)
    answers = set()
    for n in (1, 2, 7, 64, 1000, 4096, 5000, 16384, 20000):
        for extra in (-1, 0, 1):
            span = _counting_limit(n) + extra
            for a_range, b_range in ((span, 1), (1, span), (span // 3, 3), (5, span // 5)):
                if min(a_range, b_range) < 1:
                    continue
                whole = rng.integers(0, (a_range, b_range), size=(2 * n, 2))
                for a, b in ((whole[:n, 0], whole[:n, 1]),
                             (whole[::2, 0], whole[1::2, 1]),
                             (whole[:, 0].reshape(n, 2)[:, :1], whole[:, 1].reshape(n, 2)[:, 1:])):
                    path, answer = ranked(a, a_range, b, b_range)
                    sort = a_range * b_range > _counting_limit(n)
                    assert path == ([] if sort else ["zeros"])
                    answers.add((sort, answer))
    assert answers == {(False, False), (False, True), (True, False), (True, True)}
    # one pair; and 4 pairs (2 position bits) whose pair ids fill 61 bits, so
    # the packed keys take exactly 63 bits and are still sorted
    one = np.array([1])
    assert ranked(one, 2, one, 2) == (["zeros"], True)
    assert ranked(one, 1 << 40, one, 1 << 20) == ([], True)
    a = np.array([(1 << 31) - 1, 0, (1 << 31) - 1, 5])
    b = np.array([(1 << 30) - 1, 7, (1 << 30) - 1, 7])
    assert ranked(a, 1 << 31, b, 1 << 30) == ([], True)
    # keys of 64 bits (62-bit ids, 2 position bits) go to np.unique
    top = (1 << 62) - 1
    calls.clear()
    labels, values = core2d._dense_rank(np.array([top, 0, 5, top]), 1 << 62)
    assert calls == ["unique"]
    assert labels.dtype == np.int64 and labels.tolist() == [2, 0, 1, 2]
    assert values.tolist() == [0, 5, top]


def test_dense_rank_equals_the_former_kernel_at_every_boundary():
    # one id below and at each limit the kernel tells apart: the counting
    # limit of small passes (32 times the pairs), of middle ones (a range
    # of 2^17) and of large ones (8 times), the table that holds int64 (up
    # to 2^16 entries) or int32, and the 63-bit keys past which the sort
    # gives way to np.unique; on contiguous ids, a strided slice of them and
    # a 2D slice of a larger grid
    rng = np.random.default_rng(19)
    cases = [
        (1000, 32000),  # 32 times: counting, then the sort
        (3000, 1 << 16),  # counting both, into an int64 then an int32 table
        (4096, 1 << 17),  # 32 times and a range of 2^17
        (8192, 1 << 17),  # a range of 2^17, 16 times
        (20000, 160000),  # 8 times
        (4, 1 << 61),  # keys of 63 bits, then 64
    ]
    checked = 0
    for n, limit in cases:
        for span in (limit, limit + 1):
            # some repeated ids, the least and the largest among them
            pool = np.unique(np.concatenate(([0, span - 1], rng.integers(0, span, size=n))))
            whole = rng.choice(pool, size=(2 * n, 3))
            whole[0, 0], whole[-1, -1] = 0, span - 1
            strided = whole.reshape(-1)[: 2 * n : 2]
            for combo in (np.ascontiguousarray(whole[:, 0][:n]), strided, whole[: n // 2 + 1, 1:]):
                got, want = core2d._dense_rank(combo, span), reference_dense_rank(combo, span)
                for x, y in zip(got, want):
                    assert x.dtype == y.dtype and x.shape == y.shape, (n, span)
                    assert np.array_equal(x, y), (n, span)
                assert got[0].dtype == np.int64
                # ranks times a scale, as a chain that needs counts only
                # keeps them; the last scale takes the larger ones past 2^31
                for scale in (3, span // pool.size, 1 << 20):
                    labels, values = core2d._dense_rank(combo, span, scale)
                    assert labels.dtype == np.int64 and labels.shape == combo.shape
                    assert np.array_equal(labels, got[0] * scale), (n, span, scale)
                    assert np.array_equal(values, got[1]), (n, span, scale)
                checked += 1
    assert checked == 36


def test_a_counting_table_past_the_int64_cap_holds_four_bytes_an_entry():
    # the first counting range past the 2^16-entry cap: 4,096 pairs over
    # 100 ids below 2^16 + 1. Its table of int32 takes 256 KiB, one of
    # int64 would take 512 KiB alone: tables that size raised the benchmark
    # worker's peak RSS, and larger ones grow into numpy's huge-page range
    span = (1 << 16) + 1
    assert core2d._counting(4096, span)
    combo = np.random.default_rng(5).choice(np.arange(0, span, span // 99), size=4096)
    core2d._dense_rank(combo, span)
    tracemalloc.start()
    try:
        labels, values = core2d._dense_rank(combo, span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.dtype == np.int64 and values.size == 100
    assert peak < 8 * span, peak


def test_chain_counts_equal_those_ranked_with_unique(monkeypatch):
    # the suffix sort's later levels have sparse pair-id ranges, which the
    # packed-key sort ranks; the counts and the step ledger equal those of
    # the same sort with the former np.unique rank
    sorted_levels = []
    dense_rank = core2d._dense_rank

    def spy(combo, span):
        sorted_levels.append(span > _counting_limit(combo.size))
        return dense_rank(combo, span)

    rng = np.random.default_rng(31)
    periodic = np.tile(rng.integers(0, 3, size=7), 120)
    grids = [
        (rng.integers(0, 2, size=(1, 900)), 1),
        (rng.integers(0, 16, size=(1, 700)), 1),
        (periodic.reshape(1, -1), 1),
        (periodic.reshape(-1, 4), 0),
        (rng.integers(0, 2, size=(40, 30)), 0),
        (rng.integers(0, 3, size=(30, 40)), 1),
        (rng.integers(0, 2, size=(50, 3, 4)), 0),
    ]
    for grid, axis in grids:
        id_range = int(grid.max()) + 1
        got_ledger, want_ledger = Ledger(), Ledger()
        sorted_levels.clear()
        monkeypatch.setattr(core2d, "_dense_rank", spy)
        got = core2d._chain_counts(grid, axis, id_range, got_ledger, "sort")
        monkeypatch.setattr(core2d, "_dense_rank", unique_dense_rank)
        want = core2d._chain_counts(grid, axis, id_range, want_ledger, "sort")
        assert got.tolist() == want.tolist(), (grid.shape, axis)
        assert got_ledger.steps == want_ledger.steps
        assert any(sorted_levels), (grid.shape, axis)


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


def test_the_densest_walk_counts_as_the_plain_walk_does(monkeypatch):
    # the densest walk keeps the labels of a chain that needs counts only
    # times its base range and yields them as None: every count it yields
    # is the one the plain walk gives that shape. Blocky grids rank such
    # chains by counting and by the packed-key sort, and the 1 x 1024
    # string phlin(identity(32)) and its columns switch to the suffix sort,
    # whose lines are those labels divided back. A switched chain yields
    # the rest of its counts at once, read here shape by shape up to the
    # chain's end; with no bound stop its horizon lies past that end
    paths = set()
    dense_rank, chain_counts = core2d._dense_rank, core2d._chain_counts

    def spy(combo, span, scale=1):
        paths.add((scale > 1, core2d._counting(combo.size, span)))
        return dense_rank(combo, span, scale)

    def spy_counts(*args):
        paths.add("switch")
        return chain_counts(*args)

    monkeypatch.setattr(core2d, "_dense_rank", spy)
    monkeypatch.setattr(core2d, "_chain_counts", spy_counts)
    rng = np.random.default_rng(23)
    grids = [rng.integers(0, 2, size=(5, 4, 6))]
    for rows, cols, block, letters in ((24, 24, 3, 3), (20, 30, 2, 2), (16, 16, 2, 3)):
        small = rng.integers(0, letters, size=(-(-rows // block), -(-cols // block)))
        grids.append(small.repeat(block, 0).repeat(block, 1)[:rows, :cols])
    line = phlin(identity(32))._grid[0]
    grids += [line.reshape(1, -1), line.reshape(-1, 1), np.stack([line, np.roll(line, 5)], 1)]
    for grid in grids:
        what = ("window ranking",) * grid.ndim
        plain = {shape: count for shape, _, count in rank_windows(grid, ShapeBox(grid.shape), None, what)}

        def unbounded(shape, axis):
            return grid.shape[axis] + 1

        walk = []
        for shape, labels, count in rank_windows(
            grid, ShapeBox(grid.shape), Ledger(), what, None, True, unbounded
        ):
            if labels is None:
                walk.append((shape, count))
                continue
            assert type(labels) is memoryview and count == labels[0], grid.shape
            axis = next(a for a, k in enumerate(shape) if k > 1)
            ends = range(shape[axis], grid.shape[axis] + 1)
            assert len(labels) == len(ends), grid.shape
            walk += [(shape[:axis] + (k,) + shape[axis + 1 :], c) for k, c in zip(ends, labels)]
        assert walk == [(shape, plain[shape]) for shape, _ in walk], grid.shape
    assert paths >= {(True, True), (True, False), "switch"}


def test_pair_rank_is_called_only_by_the_ranking_walk():
    # one window-ranking loop: every ranking pass in core2d goes through
    # rank_windows (block trees pair whole squares in blocktree2d)
    tree = ast.parse(Path(core2d.__file__).read_text())
    callers = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_pair_rank"
    ]
    assert callers == ["rank_windows"]


def test_unique_is_called_only_by_the_wide_key_fallback():
    # one rank kernel: no module of the package sorts ids with np.unique
    # but _dense_rank, for keys too wide to pack into 63 bits
    callers = []
    for path in sorted(Path(core2d.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if isinstance(func, ast.Attribute) and func.attr == "unique":
                    callers.append((path.stem, getattr(top, "name", None)))
    assert callers == [("core2d", "_dense_rank")]


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
