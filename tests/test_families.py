from repet2d import (
    FAMILIES,
    FamilySpec,
    alt,
    bk,
    cmblocks,
    debruijn1d,
    diagpad,
    ek,
    identity,
    small_instances,
    staircase,
    zeros,
)
from repet2d import Matrix2D
from repet2d.errors import BadParam, TooLarge

from util import mat, naive_factor_count, raises


def test_identity_zeros_alt():
    assert identity(1) == mat("1")
    assert identity(3) == mat("100", "010", "001")
    assert zeros(2, 3) == mat("000", "000")
    assert alt(2, 4) == mat("0101", "0101")
    for bad in (0, -2):
        raises(BadParam, identity, bad)
        raises(BadParam, zeros, bad, 2)
        raises(BadParam, alt, 2, bad)


def test_binary_families_equal_their_token_grids():
    # the token grids the families were built from before they built ids
    grids = {
        identity: lambda n: [["1" if i == j else "0" for j in range(n)] for i in range(n)],
        alt: lambda m, n: [[str(j % 2) for j in range(n)]] * m,
        diagpad: lambda m, n: [
            ["1" if i == j and i < min(m, n) else "0" for j in range(n)] for i in range(m)
        ],
        staircase: lambda n: [
            ["1" if i == j or j == n - 1 else "0" for j in range(n)] for i in range(n - 1)
        ] + [["0"] * (n - 1) + ["1"]],
        ek: lambda k: [
            (["0"] * (1 << i) + ["1"] * (1 << i)) * (1 << (k - 1 - i)) for i in range(k)
        ],
    }
    params = {
        identity: [(n,) for n in range(1, 9)],
        alt: [(m, n) for m in range(1, 5) for n in range(1, 6)],
        diagpad: [(m, n) for m in range(1, 6) for n in range(1, 6)],
        staircase: [(n,) for n in range(2, 9)],
        ek: [(k,) for k in range(1, 7)],
    }
    for family, grid in grids.items():
        for args in params[family]:
            want = Matrix2D.from_tokens(grid(*args))
            assert repr(family(*args)) == repr(want), (family.__name__, args)
    assert identity(1).alphabet == ("1",) and alt(3, 1).alphabet == ("0",)
    # the cap is checked before any cell is built
    for family, args in ((identity, (4097,)), (staircase, (4097,)), (ek, (20,)),
                         (alt, (5000, 5000)), (diagpad, (1 << 20, 17)),
                         (zeros, (4097, 4097))):
        exc = raises(TooLarge, family, *args)
        assert "cell cap" in str(exc)


def test_diagpad_shape():
    m = diagpad(3, 5)
    assert (m.rows, m.cols) == (3, 5)
    # ones exactly on the main diagonal of the left square block
    for i in range(1, 4):
        for j in range(1, 6):
            assert m.at(i, j) == ("1" if i == j else "0")
    assert diagpad(5, 3).tokens() == tuple(zip(*diagpad(3, 5).tokens()))


def test_staircase():
    m = staircase(4)
    assert (m.rows, m.cols) == (4, 4)
    # identity of order 3, a zero row below, and a column of ones at the right
    assert m == mat("1001", "0101", "0011", "0001")
    raises(BadParam, staircase, 1)


def test_ek_bitcount_structure():
    # row i of ek(k) is 2^(i-1) zeros then 2^(i-1) ones, repeated
    for k in (1, 2, 3, 4):
        m = ek(k)
        assert (m.rows, m.cols) == (k, 2**k)
        for i in range(1, k + 1):
            period = "0" * 2 ** (i - 1) + "1" * 2 ** (i - 1)
            expected = (period * (2**k // len(period)))
            assert "".join(m.row_tokens(i)) == expected
    # every column of ek(k) is distinct (it spells the column index in binary)
    m = ek(5)
    cols = {tuple(m.at(i, j) for i in range(1, 6)) for j in range(1, 33)}
    assert len(cols) == 32


def test_debruijn_window_property():
    for k in (1, 2, 3, 4, 5):
        m = debruijn1d(k)
        assert m.rows == 1 and m.cols == 2**k + k - 1
        s = "".join(m.row_tokens(1))
        windows = {s[i:i + k] for i in range(len(s) - k + 1)}
        assert len(windows) == 2**k, f"k={k}: {sorted(windows)}"
    # lexicographically least rotation convention: the all-zero window first
    assert "".join(debruijn1d(3).row_tokens(1)).startswith("000")


def test_bk_product_windows_unique():
    for k in (1, 2, 3):
        m = bk(k)
        side = 2**k + k - 1
        assert (m.rows, m.cols) == (side, side)
        assert m.alphabet == ("0", "1", "2", "3")
        assert naive_factor_count(m, k, k) == (side - k + 1) ** 2


def test_bk_is_pairing_of_debruijn_rows():
    k = 2
    d = "".join(debruijn1d(k).row_tokens(1))
    m = bk(k)
    for i in range(1, m.cols + 1):
        for j in range(1, m.cols + 1):
            assert m.at(i, j) == str(2 * int(d[i - 1]) + int(d[j - 1]))


def test_cmblocks():
    # needs an even perfect square; first row is the block pattern, the
    # rest is filler
    m = cmblocks(4)
    assert (m.rows, m.cols) == (4, 4)
    assert m.row_tokens(1) == tuple("1000")
    assert m.row_tokens(2) == tuple("####")
    raises(BadParam, cmblocks, 2)
    raises(BadParam, cmblocks, 9)


GOOD_PARAMS = {
    "identity": (3,),
    "zeros": (2, 3),
    "alt": (2, 3),
    "diagpad": (3, 4),
    "staircase": (3,),
    "ek": (2,),
    "debruijn1d": (2,),
    "bk": (2,),
    "cmblocks": (4,),
    "bdk": (2, 2),
}


def test_family_registry():
    assert set(FAMILIES) == set(GOOD_PARAMS)
    for name, (param_names, builder) in FAMILIES.items():
        assert callable(builder), name
        assert all(isinstance(p, str) for p in param_names), name
        assert len(param_names) == len(GOOD_PARAMS[name]), name
        assert FamilySpec(name, GOOD_PARAMS[name]).build() is not None
    raises(BadParam, FamilySpec("nosuch", (1,)).build)
    raises(BadParam, FamilySpec("ek", (1, 2)).build)


def test_small_instances_respects_bounds():
    seen = set()
    for spec, m in small_instances(4, 4):
        assert m.rows <= 4 and m.cols <= 4, (spec.name, spec.params)
        key = (spec.name, spec.params)
        assert key not in seen, f"duplicate {key}"
        seen.add(key)
    # the corpus includes at least the classic families
    names = {spec.name for spec, _ in small_instances(4, 4)}
    for expected in ("identity", "zeros", "alt", "staircase", "ek"):
        assert expected in names
