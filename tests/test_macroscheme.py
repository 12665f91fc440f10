import random

from repet2d import (
    MacroScheme2D,
    Phrase,
    b_exact,
    bk,
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
from repet2d.accept import random_grammar
from repet2d.errors import (
    CyclicMap,
    NotPartition,
    OutOfBoundsSource,
    ParseError,
    TooLarge,
)
from repet2d.macroscheme import square_phrase_bound

from util import mat, random_matrix, raises


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
