import hashlib
import inspect
import itertools
import random
import sys
import tracemalloc
from math import prod

import numpy as np
import pytest

from repet2d import (
    MacroScheme2D,
    Matrix2D,
    Phrase,
    b_exact,
    bk,
    build_ek_grammar,
    build_zeros_rlslp,
    decode,
    expand,
    format_scheme,
    from_grammar,
    g_exact,
    identity,
    identity_scheme,
    parse_scheme,
    unique_square_certificate,
    validate_scheme,
    zeros,
)
from repet2d import macroscheme
from repet2d.accept import random_grammar
from repet2d.budget import WorkBudget
from repet2d.core2d import MAX_CELLS, id_dtype
from repet2d.errors import (
    BadParam,
    CyclicMap,
    NotPartition,
    OutOfBoundsSource,
    ParseError,
    Repet2dError,
    ShapeTooLarge,
    TooLarge,
)
from repet2d.macroscheme import _ERRORS, analyze_boxes, decoded_cells, square_phrase_bound

from util import (
    Ledger,
    mat,
    nd_describe,
    pointer_jumping_analyze_boxes,
    random_matrix,
    raises,
    reference_analyze_boxes,
    reference_b_exact,
    reference_decoded_cells,
)


def naive_decode(s: MacroScheme2D) -> list[list[str]]:
    """Independent decoder: follow each cell's copy chain to an explicit
    cell, with a visited set guarding against cycles."""
    src: dict[tuple[int, int], tuple[int, int]] = {}
    for p in s.phrases:
        for y in range(p.i1, p.i2 + 1):
            for x in range(p.j1, p.j2 + 1):
                src[(y, x)] = (p.si + y - p.i1, p.sj + x - p.j1)

    def resolve(pos, trail):
        if pos in s.explicit:
            return s.explicit[pos]
        assert pos not in trail, f"cycle at {pos}"
        trail.add(pos)
        return resolve(src[pos], trail)

    return [
        [resolve((y, x), set()) for x in range(1, s.cols + 1)]
        for y in range(1, s.rows + 1)
    ]


def scheme_of(rows, cols, explicit, phrases):
    return MacroScheme2D(rows, cols, dict(explicit), tuple(Phrase(*p) for p in phrases))


def test_hand_scheme_decodes():
    # 2x2 checkerboard: two explicit cells, second row copied shifted
    s = scheme_of(
        2, 2,
        {(1, 1): "0", (1, 2): "1"},
        [(2, 1, 2, 1, 1, 2), (2, 2, 2, 2, 1, 1)],
    )
    assert validate_scheme(s).ok
    assert decode(s) == mat("01", "10")


def test_validate_taxonomy():
    # overlap
    s = scheme_of(1, 2, {(1, 1): "0"}, [(1, 1, 1, 2, 1, 1)])
    chk = validate_scheme(s)
    assert not chk.ok and chk.error == "NotPartition"
    raises(NotPartition, decode, s)
    # hole
    s = scheme_of(1, 3, {(1, 1): "0"}, [(1, 2, 1, 2, 1, 1)])
    assert validate_scheme(s).error == "NotPartition"
    # source sticking out of the grid
    s = scheme_of(1, 3, {(1, 1): "0"}, [(1, 2, 1, 3, 1, 3)])
    assert validate_scheme(s).error == "OutOfBoundsSource"
    raises(OutOfBoundsSource, decode, s)
    # self-referential copy chain
    s = scheme_of(1, 4, {(1, 1): "0"}, [(1, 2, 1, 4, 1, 2)])
    assert validate_scheme(s).error == "CyclicMap"
    raises(CyclicMap, decode, s)
    # a chain that bounces between two phrases forever
    s = scheme_of(1, 5, {(1, 1): "a"}, [(1, 2, 1, 3, 1, 4), (1, 4, 1, 5, 1, 2)])
    assert validate_scheme(s).error == "CyclicMap"


def test_decode_matches_naive_resolver():
    rng = random.Random(77)
    for _ in range(60):
        g = random_grammar(rng)
        s = from_grammar(g)
        expected = naive_decode(s)
        assert [list(r) for r in decode(s).tokens()] == expected


def test_from_grammar_size_bound():
    rng = random.Random(13)
    for _ in range(80):
        g = random_grammar(rng)
        s = from_grammar(g)
        assert validate_scheme(s).ok
        assert decode(s) == expand(g)
        assert s.size <= g.size, format(g)


def test_b_exact_small_values():
    # all-equal 2x2: one explicit cell and two phrases is the proven minimum
    assert b_exact(zeros(2, 2)).size == 3
    assert b_exact(zeros(3, 3)).size == 3
    assert b_exact(mat("0")).size == 1
    assert b_exact(mat("01")).size == 2
    res = b_exact(identity(3))
    assert decode(res) == identity(3)
    assert res.size == 5


def test_b_exact_soundness_random():
    rng = random.Random(100)
    for _ in range(30):
        m = random_matrix(rng, 3, 3)
        s = b_exact(m)
        assert decode(s) == m
        # never beaten by the best grammar-derived scheme
        assert s.size <= from_grammar(g_exact(m, allow_runs=True).grammar).size


def test_b_exact_equals_the_recorded_schemes_and_ledger():
    # each scheme (a digest of its repr) and its "scheme search" steps as
    # recorded when b_exact compared token tuples: reading window ids must
    # not change an occurrence list, a source or the max_copy_area bound
    rng = random.Random(404)

    def grid(rows, cols, alphabet):
        return Matrix2D.from_tokens(
            [[rng.choice(alphabet) for _ in range(cols)] for _ in range(rows)]
        )

    cases = [grid(3, 3, a) for a in ("01", "012") for _ in range(3)]
    cases += [grid(2, 4, "01"), grid(1, 9, "012"), grid(4, 4, "01"), grid(4, 4, "01")]
    cases += [identity(3), zeros(3, 3)]
    recorded = [
        (6, "8cd24ebd92b75484", 300), (5, "99418046091e73fa", 45),
        (6, "0063100f67a83660", 237), (8, "d95ae9730bc3dff6", 22),
        (8, "9bb7cd52a2b080e2", 16), (8, "55e29ddfa2ca393d", 41),
        (5, "e5a913e7e63d8894", 101), (7, "029da16fe0f6218e", 43),
        (7, "b428282a07a20dca", 618), (7, "1201e4bb43dbd4cf", 799),
        (5, "2e96d4fa8f3763cf", 100), (3, "67c74fab5e69f003", 33),
    ]
    for m, (size, digest, steps) in zip(cases, recorded, strict=True):
        ledger = Ledger()
        s = b_exact(m, cell_limit=16, budget=ledger)
        got = (s.size, hashlib.sha256(repr(s).encode()).hexdigest()[:16], ledger.steps)
        assert got == (size, digest, {"scheme search": steps}), m


def _scheme_outcome(search, m, limit=None, **kw):
    """The scheme's repr or the exception's text, with the budget used and
    the steps charged per label."""
    ledger = Ledger()
    if limit is not None:
        ledger.limit = limit
    try:
        got = repr(search(m, cell_limit=16, budget=ledger, **kw))
    except Repet2dError as exc:
        got = f"{type(exc).__name__}: {exc}"
    return got, ledger.used, ledger.steps


def test_b_exact_equals_the_reference_search(monkeypatch):
    # the search that walks only the new part's chains must choose the same
    # sources, tick the same nodes and stop at the same budget or search cap
    # as the one that walked every chain after each choice
    cases = []
    for rows in range(1, 4):
        for cols in range(1, 4):
            for bits in itertools.product("01", repeat=rows * cols):
                cases.append(Matrix2D.from_tokens(
                    [bits[i * cols:(i + 1) * cols] for i in range(rows)]
                ))
    assert len(cases) == 682
    rng = random.Random(1982)
    for _ in range(60):
        cases.append(random_matrix(rng, 4, 4, "0123"[:rng.randint(1, 4)]))
    for m in cases:
        want = _scheme_outcome(reference_b_exact, m)
        assert _scheme_outcome(b_exact, m) == want, m
        used = want[1]
        for limit in {1, 2, used - 1, used, used + 1} - {0}:
            want = _scheme_outcome(reference_b_exact, m, limit)
            assert _scheme_outcome(b_exact, m, limit) == want, (m, limit)
        cap = max(1, used // 2)
        want = _scheme_outcome(reference_b_exact, m, work_limit=cap)
        with monkeypatch.context() as patch:
            patch.setattr(macroscheme, "_SEARCH_CAP", cap)
            assert _scheme_outcome(b_exact, m) == want, (m, cap)


def test_b_exact_stops_at_every_budget_limit_as_the_reference(monkeypatch):
    # the search charges its nodes in one call, so it must raise at the
    # same node, with the same budget.used, as the reference that charges
    # each node: every limit up to one past the whole search, also with the
    # search cap where the budget and the cap meet (the budget comes first)
    rng = random.Random(22)
    for alphabet in ("01", "012", "01"):
        m = Matrix2D.from_tokens([[rng.choice(alphabet) for _ in range(3)] for _ in range(3)])
        _, total, _ = _scheme_outcome(reference_b_exact, m)
        for cap in (None, total // 2):
            kw = {} if cap is None else {"work_limit": cap}
            for limit in range(1, total + 2):
                want = _scheme_outcome(reference_b_exact, m, limit, **kw)
                with monkeypatch.context() as patch:
                    if cap is not None:
                        patch.setattr(macroscheme, "_SEARCH_CAP", cap)
                    assert _scheme_outcome(b_exact, m, limit) == want, (m, cap, limit)


def test_b_exact_charges_its_nodes_in_one_call():
    # per-node charging cost about 0.5 us a node in a ledger subclass: the
    # search counts its nodes and charges them once
    rng = random.Random(45)
    m = Matrix2D.from_tokens([[rng.choice("01") for _ in range(4)] for _ in range(4)])
    ledger = Ledger()
    b_exact(m, cell_limit=16, budget=ledger)
    assert ledger.steps["scheme search"] > 1000
    assert ledger.calls == {"scheme search": 1}


def test_b_exact_cell_limit():
    raises(TooLarge, b_exact, zeros(4, 4))
    assert b_exact(zeros(4, 4), cell_limit=16).size == 3


def test_identity_scheme():
    for n in (3, 5, 17, 64):
        s = identity_scheme(n)
        assert s.size == 6
        assert validate_scheme(s).ok
        assert decode(s) == identity(n)
    # degenerate orders fall back to explicit cells
    assert identity_scheme(1).size == 1
    assert identity_scheme(2).size == 4
    assert decode(identity_scheme(2)) == identity(2)


def test_identity_scheme_mutation_breaks():
    s = identity_scheme(5)
    # dropping any phrase must leave a hole
    for k in range(len(s.phrases)):
        broken = MacroScheme2D(
            s.rows, s.cols, s.explicit, s.phrases[:k] + s.phrases[k + 1:]
        )
        assert validate_scheme(broken).error == "NotPartition"
    # flipping an explicit cell decodes to a different matrix
    (pos, tok) = next(iter(sorted(s.explicit.items())))
    flipped = dict(s.explicit)
    flipped[pos] = "1" if tok == "0" else "0"
    assert decode(MacroScheme2D(s.rows, s.cols, flipped, s.phrases)) != identity(5)


def test_square_certificates():
    for k in (1, 2, 3):
        m = bk(k)
        assert unique_square_certificate(m, k)
        assert square_phrase_bound(m, k) == (
            -(-m.rows // k) * (-(-m.cols // k))
        )
    assert not unique_square_certificate(zeros(3, 3), 2)


def test_scheme_text_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        s = from_grammar(random_grammar(rng))
        back = parse_scheme(format_scheme(s))
        assert back == s
    raises(ParseError, parse_scheme, "")
    raises(ParseError, parse_scheme, "scheme 2\n")
    raises(ParseError, parse_scheme, "scheme 1 1\nexp 1 1\n")
    raises(ParseError, parse_scheme, "scheme 1 1\nfrob 1 1 0\n")
    raises(ParseError, parse_scheme, "scheme 1 2\nexp 1 1 0\nphr 1 2 1 2 1\n")
    # a cell given twice is an error naming the repeated line
    exc = raises(ParseError, parse_scheme, "scheme 1 2\nexp 1 1 0\n\nexp 1 1 1\n")
    assert "line 4" in str(exc)


def test_scheme_over_the_cell_cap():
    # only the header is large: the cap is checked before anything is allocated
    huge = MacroScheme2D(100000, 100000, {}, ())
    chk = validate_scheme(huge)
    assert not chk.ok and chk.error == "TooLarge"
    raises(TooLarge, decode, huge)


# ---------------------------------------------------------------------------
# pointer-jumping analysis against the list-filling oracle
# ---------------------------------------------------------------------------


def _checked_against(oracle, record):
    """analyze_boxes that also runs ``oracle`` with the same describe and
    asserts the same check repr (a cycle cell is in its message) and the
    same chain ends; ``record(dims, boxes, check)`` sees every check."""

    def both(dims, explicit, boxes, size, describe, budget=None):
        got = analyze_boxes(dims, explicit, boxes, size, describe, budget)
        want = oracle(dims, explicit, boxes, size, describe)
        assert repr(got[0]) == repr(want[0]), (dims, explicit, boxes)
        if want[1] is None:
            assert got[1] is None
        else:
            (root, tokens), (want_root, want_tokens) = got[1], want[1]
            assert root.dtype == np.int32 and np.array_equal(root, want_root)
            assert list(tokens.items()) == list(want_tokens.items())
        record(dims, boxes, got[0])
        return got

    return both


@pytest.fixture
def against_oracle(monkeypatch):
    """Run every scheme check through both analyze_boxes and the
    list-filling oracle. Yields the list of checks made."""
    checks = []
    both = _checked_against(reference_analyze_boxes, lambda dims, boxes, check: checks.append(check))
    monkeypatch.setattr(macroscheme, "analyze_boxes", both)
    return checks


def _unravel(flat, dims):
    pos = []
    for n in reversed(dims):
        flat, r = divmod(flat, n)
        pos.append(r + 1)
    return tuple(reversed(pos))


def _ravel(pos, dims):
    flat = 0
    for p, n in zip(pos, dims):
        flat = flat * n + p - 1
    return flat


def _box_cells(lo, hi):
    out = [()]
    for a, b in zip(lo, hi):
        out = [c + (v,) for c in out for v in range(a, b + 1)]
    return out


def random_parts(rng, dims, acyclic):
    """A random partition of the grid into explicit cells and boxes. With
    ``acyclic`` every source starts before its target in row-major order,
    so the scheme is valid; otherwise sources are anywhere in bounds."""
    d = len(dims)
    taken = set()
    explicit, boxes = {}, []
    for flat in range(prod(dims)):
        lo = _unravel(flat, dims)
        if lo in taken:
            continue
        ext = [0] * d
        for a in rng.sample(range(d), d):
            want = rng.choice([0, 0, 1, 2, dims[a]])
            while ext[a] < want and lo[a] + ext[a] < dims[a]:
                grown = ext[:]
                grown[a] += 1
                hi = tuple(p + e for p, e in zip(lo, grown))
                if any(c in taken for c in _box_cells(lo, hi)):
                    break
                ext = grown
        if acyclic:
            sources = [
                c for c in _box_cells((1,) * d, tuple(n - e for n, e in zip(dims, ext)))
                if _ravel(c, dims) < flat
            ]
            if not sources:
                ext = [0] * d
                sources = [_unravel(f, dims) for f in range(flat)]
        hi = tuple(p + e for p, e in zip(lo, ext))
        taken.update(_box_cells(lo, hi))
        if not any(ext) and (not sources if acyclic else rng.random() < 0.4):
            explicit[lo] = rng.choice("ab")
        elif acyclic:
            boxes.append((lo, hi, rng.choice(sources)))
        else:
            src = tuple(rng.randint(1, n - e) for n, e in zip(dims, ext))
            boxes.append((lo, hi, src))
    return explicit, boxes


def _break(rng, dims, explicit, boxes):
    """One random fault: a bad dims, an explicit cell with a bad token or
    outside the grid, an inverted/out-of-bounds box, a bad source, a second
    cover of some part, or a missing part."""
    explicit, boxes = dict(explicit), list(boxes)
    d = len(dims)
    kind = rng.choice(["dims", "token", "outside", "inverted", "target", "source",
                       "overlap", "overlap", "holes", "holes"])
    if kind == "dims":
        dims = tuple(rng.choice([0, -1]) if a == 0 else n for a, n in enumerate(dims))
    elif kind == "token":
        explicit[_unravel(rng.randrange(prod(dims)), dims)] = rng.choice(["", "a b"])
    elif kind == "outside":
        pos = list(_unravel(rng.randrange(prod(dims)), dims))
        pos[rng.randrange(d)] = rng.choice([0, dims[0] + 1, 99])
        explicit[tuple(pos)] = "a"
    elif kind in ("inverted", "target", "source") and boxes:
        k = rng.randrange(len(boxes))
        lo, hi, src = boxes[k]
        a = rng.randrange(d)
        if kind == "inverted":
            hi = hi[:a] + (lo[a] - 1,) + hi[a + 1:]
        elif kind == "target":
            lo, hi = lo[:a] + (lo[a] + dims[a],) + lo[a + 1:], hi[:a] + (hi[a] + dims[a],) + hi[a + 1:]
        else:
            src = src[:a] + (rng.choice([0, dims[a] + 1]),) + src[a + 1:]
        boxes[k] = (lo, hi, src)
    elif kind == "overlap":
        lo = _unravel(rng.randrange(prod(dims)), dims)
        boxes.insert(rng.randint(0, len(boxes)), (lo, lo, (1,) * d))
    elif kind == "holes":
        if boxes and (not explicit or rng.random() < 0.5):
            boxes.pop(rng.randrange(len(boxes)))
        elif explicit:
            explicit.pop(rng.choice(list(explicit)))
    return dims, explicit, boxes


def _check_both_ways(dims, explicit, boxes):
    """analyze_boxes on any number of axes, with the dD messages, and when
    d = 2 also validate and decode; returns the analyze_boxes check. A
    valid scheme must decode to the oracle's cells: the id array of
    ``decoded_cells`` read as a tuple, and the decoded matrix's ``cells``."""
    size = len(explicit) + len(boxes)
    check, data = macroscheme.analyze_boxes(dims, explicit, boxes, size, nd_describe(dims, boxes))
    decoded = []
    if check.ok:
        ids, alphabet = decoded_cells(*data)
        assert type(ids) is np.ndarray and ids.shape == (prod(dims),), (type(ids), dims)
        assert ids.dtype == id_dtype(len(alphabet)), (ids.dtype, len(alphabet))
        decoded.append((tuple(ids.tolist()), alphabet))
    if len(dims) == 2:
        s = MacroScheme2D(*dims, explicit, tuple(Phrase(*lo, *hi, *src) for lo, hi, src in boxes))
        check_2d = validate_scheme(s)
        assert check_2d.ok == check.ok, (check_2d, check)
        if check_2d.ok:
            got = decode(s)
            decoded.append((got.cells, got.alphabet))
        else:
            with pytest.raises(_ERRORS[check_2d.error]) as err:
                decode(s)
            assert str(err.value) == check_2d.message
    if decoded:
        _, (root, tokens) = reference_analyze_boxes(
            dims, explicit, boxes, size, lambda fault, at: (fault, at)
        )
        want = reference_decoded_cells(root, tokens)
        for cells, alphabet in decoded:
            assert (cells, alphabet) == want
            assert type(cells) is tuple
    return check


def _random_dims(rng):
    d = rng.randint(1, 3)
    return tuple(rng.randint(1, (9, 5, 3)[d - 1]) for _ in range(d))


def test_analysis_equals_the_oracle_on_random_schemes(against_oracle):
    rng = random.Random(606)
    errors = set()
    for _ in range(300):
        dims = _random_dims(rng)
        explicit, boxes = random_parts(rng, dims, acyclic=rng.random() < 0.5)
        errors.add(_check_both_ways(dims, explicit, boxes).error)
    assert {None, "CyclicMap"} <= errors
    assert all(c.error in (None, "CyclicMap") for c in against_oracle)


def test_analysis_names_the_first_of_one_or_two_faults(against_oracle):
    rng = random.Random(607)
    errors = set()
    for _ in range(500):
        dims = _random_dims(rng)
        explicit, boxes = random_parts(rng, dims, acyclic=rng.random() < 0.7)
        faulty = _break(rng, dims, explicit, boxes)
        if rng.random() < 0.5 and min(faulty[0]) >= 1:
            faulty = _break(rng, *faulty)
        errors.add(_check_both_ways(*faulty).error)
    assert errors >= {"BadParam", "OutOfBounds", "OutOfBoundsSource", "NotPartition", "CyclicMap"}


def test_analysis_of_oversized_headers(against_oracle):
    side = MAX_CELLS.bit_length()
    for dims in ((MAX_CELLS + 1,), (side, MAX_CELLS), (MAX_CELLS, 2, 2)):
        explicit = {(1,) * len(dims): "a"}
        boxes = [((1,) * len(dims), (2,) * len(dims), (1,) * len(dims))]
        assert _check_both_ways(dims, explicit, boxes).error == "TooLarge"


def cycle_parts(rng, dims, length, lead):
    """Unit boxes that copy around one cycle of ``length`` cells (1 is a
    self-copy) plus ``lead`` cells whose chain runs into it; every other
    cell explicit, the cells placed at random."""
    cells = [_unravel(f, dims) for f in range(prod(dims))]
    rng.shuffle(cells)
    ring, tail = cells[:length], cells[length:length + lead]
    boxes = [(c, c, ring[(i + 1) % length]) for i, c in enumerate(ring)]
    boxes += [(c, c, nxt) for c, nxt in zip(tail, tail[1:] + [ring[0]])]
    rng.shuffle(boxes)
    explicit = {c: rng.choice("ab") for c in cells[length + lead:]}
    return explicit, boxes


def test_cycles_pointer_jumping_cannot_settle(against_oracle):
    rng = random.Random(608)
    for dims in ((12,), (3, 4), (4, 5), (2, 3, 2)):
        for length in (1, 2, 3, 5, 6, 7):
            for lead in (0, 1, 3):
                for _ in range(4):
                    explicit, boxes = cycle_parts(rng, dims, length, lead)
                    check = _check_both_ways(dims, explicit, boxes)
                    assert check.error == "CyclicMap", check
    # a self-copying box and boxes that swap halves: cycles of whole boxes
    assert _check_both_ways((1, 5), {(1, 1): "a"}, [((1, 2), (1, 5), (1, 2))]).error == "CyclicMap"
    swap = [((1, 2), (1, 3), (1, 4)), ((1, 4), (1, 5), (1, 2))]
    assert _check_both_ways((1, 5), {(1, 1): "a"}, swap).error == "CyclicMap"
    # a random copy map over unit boxes: cycles of every length at once
    for _ in range(100):
        dims = _random_dims(rng)
        cells = [_unravel(f, dims) for f in range(prod(dims))]
        explicit = {c: "a" for c in rng.sample(cells, rng.randint(1, len(cells)))}
        boxes = [(c, c, rng.choice(cells)) for c in cells if c not in explicit]
        _check_both_ways(dims, explicit, boxes)
    assert {c.error for c in against_oracle} == {"CyclicMap", None}


def test_decode_charges_one_step_per_cell():
    for s in (identity_scheme(64), from_grammar(build_ek_grammar(7))):
        ledger = Ledger()
        decode(s, ledger)
        assert ledger.steps == {"scheme decode": s.rows * s.cols}


def test_decode_charges_before_it_allocates():
    s = identity_scheme(1024)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeTooLarge) as err:
            decode(s, WorkBudget(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "work budget exceeded during scheme decode: 1048576 > limit 10"
    assert peak < 1 << 20, peak
    # the charge follows the dims and cell-cap checks and precedes the others
    raises(BadParam, decode, MacroScheme2D(0, 4, {}, ()), WorkBudget(1))
    raises(TooLarge, decode, MacroScheme2D(100000, 100000, {}, ()), WorkBudget(1))
    cycle = scheme_of(1, 4, {(1, 1): "0"}, [(1, 2, 1, 2, 1, 3), (1, 3, 1, 3, 1, 4), (1, 4, 1, 4, 1, 2)])
    bad_token = scheme_of(1, 2, {(1, 1): "0", (1, 2): "a b"}, [])
    for broken, error in ((cycle, CyclicMap), (bad_token, BadParam)):
        raises(error, decode, broken, WorkBudget(broken.rows * broken.cols))
        exc = raises(ShapeTooLarge, decode, broken, WorkBudget(broken.rows * broken.cols - 1))
        assert "during scheme decode" in str(exc)


# ---------------------------------------------------------------------------
# boxes whose source meets their target, written as exits
# ---------------------------------------------------------------------------


@pytest.fixture
def against_plain_shifts(monkeypatch):
    """Run every scheme check through both analyze_boxes and the check that
    steps every box cell by one shift. Yields the list of (dims, boxes,
    check) made."""
    checks = []
    both = _checked_against(pointer_jumping_analyze_boxes, lambda *made: checks.append(made))
    monkeypatch.setattr(macroscheme, "analyze_boxes", both)
    return checks


def _jumped(dims, boxes) -> int:
    """How many of the boxes (in bounds) are written as exits."""
    count = 0
    for lo, hi, src in boxes:
        offset = [s - p for s, p in zip(src, lo)]
        ext = [h - p for h, p in zip(hi, lo)]
        if any(offset) and all(3 * abs(o) <= e for o, e in zip(offset, ext)):
            count += 1
    return count


def overlapping_parts(rng, dims, acyclic):
    """random_parts' partition with every box re-sourced at an offset of
    -ext..ext along each axis (in bounds), so most sources meet their own
    target. With ``acyclic`` every flat shift is negative (the first nonzero
    offset is), so every chain falls in row-major order and ends; a box with
    no such offset becomes explicit cells."""
    explicit, parts = random_parts(rng, dims, acyclic=False)
    boxes = []
    for lo, hi, _ in parts:
        offset = [
            rng.randint(max(-(h - p), 1 - p), min(h - p, n - h))
            for p, h, n in zip(lo, hi, dims)
        ]
        first = next((a for a, o in enumerate(offset) if o), None)
        if acyclic and first is not None and offset[first] > 0:
            if -offset[first] >= 1 - lo[first]:
                offset[first] = -offset[first]
            else:
                first = None
        if acyclic and first is None:
            explicit.update((c, rng.choice("ab")) for c in _box_cells(lo, hi))
            continue
        boxes.append((lo, hi, tuple(p + o for p, o in zip(lo, offset))))
    rng.shuffle(boxes)
    return explicit, boxes


def test_exits_equal_plain_shifts_on_self_overlapping_boxes(against_plain_shifts):
    rng = random.Random(611)
    for _ in range(300):
        d = rng.randint(1, 3)
        dims = tuple(rng.randint(1, (40, 12, 6)[d - 1]) for _ in range(d))
        acyclic = rng.random() < 0.5
        explicit, boxes = overlapping_parts(rng, dims, acyclic)
        check = _check_both_ways(dims, explicit, boxes)
        assert check.ok or not acyclic, check
    # each scheme counts once, however many of its checks ran
    made = {(dims, tuple(b)): c for dims, b, c in against_plain_shifts}
    valid = sum(_jumped(dims, b) for (dims, b), c in made.items() if c.ok)
    cyclic = sum(_jumped(dims, b) for (dims, b), c in made.items() if c.error == "CyclicMap")
    assert valid > 40 and cyclic > 40, (valid, cyclic)


def test_exits_equal_plain_shifts_on_cycles_through_them(against_plain_shifts):
    # a run box shifted by +k (its chains leave it at the far end) whose
    # exit cells copy back into its first cells: every chain cycles through
    # the box; with one cell of the ring explicit instead, every chain ends
    rng = random.Random(612)
    for _ in range(200):
        d = rng.randint(1, 3)
        dims = [rng.randint(1, 4) for _ in range(d)]
        axis = rng.randrange(d)
        k = rng.randint(1, 3)
        dims[axis] = rng.randint(4 * k + 2, 30)
        dims = tuple(dims)
        length = rng.randint(3 * k + 1, dims[axis] - k)  # cells of the box along the axis
        start = rng.randint(1, dims[axis] - length - k + 1)
        lo = tuple(start if a == axis else 1 for a in range(d))
        hi = tuple(start + length - 1 if a == axis else n for a, n in enumerate(dims))
        src = tuple(start + k if a == axis else 1 for a in range(d))
        tail_lo = tuple(start + length if a == axis else 1 for a in range(d))
        tail_hi = tuple(start + length + k - 1 if a == axis else n for a, n in enumerate(dims))
        boxes = [(lo, hi, src), (tail_lo, tail_hi, lo)]
        covered = set(_box_cells(lo, tail_hi))
        explicit = {c: rng.choice("ab") for c in _box_cells((1,) * d, dims) if c not in covered}
        assert _check_both_ways(dims, explicit, boxes).error == "CyclicMap"
        # a chain from before the box that enters the ring mid-box: the
        # first repeated cell on its one-shift walk is that entry cell
        first = min(explicit, default=None)
        if first is not None and first < lo:
            entry = rng.choice(_box_cells(lo, hi))
            rest = {c: t for c, t in explicit.items() if c != first}
            check = _check_both_ways(dims, rest, boxes + [(first, first, entry)])
            assert check.error == "CyclicMap"
            assert check.message == f"copy cycle through cell {_ravel(entry, dims)}", (check, entry)
        # the tail copied from outside: the run box's chains end there
        if start > k:
            out = tuple(start - k if a == axis else 1 for a in range(d))
            freed = {c: rng.choice("ab") for c in _box_cells(tail_lo, tail_hi)}
            assert _check_both_ways(dims, {**explicit, **freed}, boxes[:1]).ok
            assert _check_both_ways(dims, explicit, [boxes[0], (tail_lo, tail_hi, out)]).ok
    assert sum(_jumped(dims, b) for dims, b, c in against_plain_shifts if c.error == "CyclicMap") >= 200


def test_exits_equal_plain_shifts_on_identity_and_run_length_schemes(against_plain_shifts):
    for n in range(1, 65):
        s = identity_scheme(n)
        assert decode(s) == identity(n)
    rng = random.Random(613)
    grammars = [build_zeros_rlslp(n) for n in (2, 3, 5, 16, 33)]
    grammars += [random_grammar(rng, allow_runs=True) for _ in range(150)]
    for g in grammars:
        s = from_grammar(g)
        assert validate_scheme(s).ok
        assert decode(s) == expand(g)
    assert sum(_jumped(dims, b) for dims, b, c in against_plain_shifts) > 100


def _jumping_rounds(s) -> int:
    """The pointer-jumping rounds of validate_scheme(s): the gathers called
    from the line of analyze_boxes that takes each cell's pointer's
    pointer."""
    code, gather = analyze_boxes.__code__, macroscheme._gather.__code__
    lines, first = inspect.getsourcelines(analyze_boxes)
    (line,) = [first + i for i, text in enumerate(lines) if "_gather(root, root" in text]
    rounds = 0

    def count(frame, event, arg):
        nonlocal rounds
        caller = frame.f_back
        if event == "call" and frame.f_code is gather and caller.f_code is code and caller.f_lineno == line:
            rounds += 1

    sys.setprofile(count)
    try:
        check = validate_scheme(s)
    finally:
        sys.setprofile(None)
    assert check.ok
    return rounds


def test_self_overlapping_boxes_take_one_round():
    # one hop leaves each box, so a chain of the identity scheme makes two
    # (diagonal box, then row or column) and one round joins them; stepping
    # one shift a cell takes 11 and 8 rounds
    assert _jumping_rounds(identity_scheme(1024)) <= 1
    assert _jumping_rounds(from_grammar(build_zeros_rlslp(64))) <= 1


@pytest.mark.parametrize("oracle", ["against_oracle", "against_plain_shifts"])
def test_the_run_stops_where_the_oracles_do(oracle, request):
    # the run stops once every root is explicit: self-copies and cycles
    # never get there, and valid chains of every length do
    checks = request.getfixturevalue(oracle)
    rng = random.Random(614)
    # self-copying boxes: alone, at the end of a chain, and beside valid parts
    assert _check_both_ways((1, 5), {(1, 1): "a"}, [((1, 2), (1, 5), (1, 2))]).error == "CyclicMap"
    parts = [((3,), (3,), (6,)), ((4,), (5,), (1,)), ((6,), (6,), (6,))]
    assert _check_both_ways((6,), {(1,): "a", (2,): "b"}, parts).error == "CyclicMap"
    explicit = {c: "ab"[sum(c) % 2] for c in _box_cells((1, 1), (4, 4)) if min(c) == 1}
    assert _check_both_ways((4, 4), explicit, [((2, 2), (4, 4), (2, 2))]).error == "CyclicMap"
    # cycles whose length is no power of two: no round settles them, so
    # only the round bound ends the run
    for length in (3, 5, 6, 7, 9, 12, 31, 33, 100):
        for lead in (0, 2, 40):
            for dims in ((length + lead + 3,), (3, -(-(length + lead + 3) // 3))):
                explicit, boxes = cycle_parts(rng, dims, length, lead)
                assert _check_both_ways(dims, explicit, boxes).error == "CyclicMap"
    # one chain of unit boxes through every cell: 9 rounds, or a cycle of 51
    cells = [(k,) for k in range(1, 301)]
    boxes = [(c, c, p) for p, c in zip(cells, cells[1:])]
    rng.shuffle(boxes)
    assert _check_both_ways((300,), {(1,): "a"}, boxes).ok
    looped = [(lo, hi, (200,) if lo == (150,) else p) for lo, hi, p in boxes]  # 150..200 cycle
    assert _check_both_ways((300,), {(1,): "a"}, looped).error == "CyclicMap"
    # schemes over 255, 256 and 257 letters (ids take one byte up to 256):
    # row 1 explicit, the rows below copied from the row above
    for letters in (255, 256, 257):
        explicit = {(1, j): f"t{j:03d}" for j in range(1, letters + 1)}
        rows = [((2, 1), (8, letters), (1, 1))]
        assert _check_both_ways((8, letters), explicit, rows).ok
        shifted = [((2, 1), (8, letters - 1), (1, 2)), ((2, letters), (8, letters), (1, 1))]
        assert _check_both_ways((8, letters), explicit, shifted).ok
        del explicit[(1, letters)]
        looped = rows + [((1, letters), (1, letters), (8, letters))]
        assert _check_both_ways((8, letters), explicit, looped).error == "CyclicMap"
    assert len(checks) > 100


def test_exits_are_written_in_place():
    # the exits of identity_scheme(1024)'s diagonal box need only the
    # per-axis counts, not a temporary of the box (4 MB as int32)
    n = 1023
    view = np.empty((n, n), dtype=np.int32)
    shift = -(n + 2)  # (-1, -1) in a 1024 x 1024 grid
    tracemalloc.start()
    try:
        macroscheme._write_exits(view, (-1, -1), (n - 1, n - 1), shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    i = np.arange(n)
    assert np.array_equal(view, (np.minimum.outer(i, i) + 1) * shift)


def test_exits_do_not_wrap_int32():
    # along axis 1 q reaches 1000, and 1000 times the shift passes 2^31; the
    # least q over the axes is at most 4, so its product fits
    view = np.empty((4, 1000), dtype=np.int32)
    shift = (1 << 22) + 1  # (1, 1) in a grid 2^22 cells wide
    macroscheme._write_exits(view, (1, 1), (3, 999), shift)
    q = np.minimum.outer(np.arange(4, 0, -1), np.arange(1000, 0, -1))
    assert np.array_equal(view, q * shift)


def test_decode_peak_memory():
    # the peak of decode and validate: the pointer jumping holds two int32
    # arrays of the grid and two one-byte masks (10 MB); its gathers take
    # 65,536 cells at a time, so numpy's intp copy of the int32 indices is
    # 0.5 MB (it was 8 MB with one take over the grid, an 18 MB peak); the
    # cells are read back through one byte a cell (the int32 ids and their
    # list made 24 MB)
    s = identity_scheme(1024)
    for run in (decode, validate_scheme):
        run(s)
        tracemalloc.start()
        try:
            run(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20, (run, peak)


def test_decoded_matrix_holds_one_byte_a_cell():
    # decode(identity_scheme(1024)) keeps its one-byte id array and builds
    # no tuple of its 1M cells (the tuple alone was 8 MB); one cell read
    # builds none either, and the tuple read later is the oracle's
    s = identity_scheme(1024)
    tracemalloc.start()
    try:
        m = decode(s)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert (m.at(512, 512), m.at(512, 513), m.id_at(1, 1)) == ("1", "0", 1)
        at_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert held < 2 << 20, held
    assert at_peak < 1 << 12, at_peak
    assert "cells" not in m.__dict__ and m.ids.nbytes == 1 << 20
    assert m.cells == tuple(1 if i == j else 0 for i in range(1024) for j in range(1024))
    # a grid of no whole number of gathers (90,000 cells) decodes alike
    assert decode(identity_scheme(300)) == identity(300)
