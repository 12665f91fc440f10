import random

from repet2d import alt, ek, identity, is_attractor, zeros
from repet2d.core2d import Matrix2D
from repet2d.errors import BadParam, NotPowerOfTwoSquare
from repet2d.linearize import (
    ek_rlin_attractor,
    onerun_certificate,
    phlin,
    phlin_kind,
    rlin,
    scan,
    scan_coords,
)
from repet2d.measures import delta

from util import mat, random_matrix, stack_scan_coords, tuple_scan

# the four scans, named after the side they finish on
SCAN_KINDS = ("ls", "rs", "us", "ds")


def word(m: Matrix2D) -> str:
    assert m.rows == 1
    return "".join(m.tokens()[0])


def test_row_linearization():
    m = mat("ab", "cd")
    assert word(rlin(m)) == "abcd"
    rng = random.Random(11)
    for _ in range(20):
        r = random_matrix(rng, 5, 5)
        lin = rlin(r)
        assert lin.rows == 1 and lin.cols == r.rows * r.cols
        assert word(lin) == "".join("".join(row) for row in r.tokens())
    # the cells and the alphabet are those from_tokens builds of the token row
    for alphabet in ("#01", "0123456789abcdef", "#123456789abcdef"):
        for _ in range(10):
            r = random_matrix(rng, 6, 6, alphabet)
            assert rlin(r) == Matrix2D.from_tokens([[t for row in r.tokens() for t in row]])


def test_curve_scan_fixed_values():
    assert word(scan(alt(2, 2), "rs")) == "0110"
    # frozen traversal order for the 4x4 curve, as 0-based row-major ranks
    order = [(y - 1) * 4 + (x - 1) for y, x in scan_coords(4, "rs")]
    assert order == [0, 4, 5, 1, 2, 3, 7, 6, 10, 11, 15, 14, 13, 9, 8, 12]
    # every scan equals from_tokens of the tokens it visits, cells and alphabet
    rng = random.Random(12)
    for alphabet in ("#01", "0123456789abcdef", "#123456789abcdef"):
        for n in (1, 2, 4, 8, 16):
            r = Matrix2D.from_tokens([[rng.choice(alphabet) for _ in range(n)] for _ in range(n)])
            for kind in SCAN_KINDS:
                want = Matrix2D.from_tokens([[r.at(y, x) for y, x in scan_coords(n, kind)]])
                assert scan(r, kind) == want, (str(r), kind)


def test_scans_gather_what_the_cell_by_cell_walk_reads():
    # on every power-of-two side up to 64 and every scan kind, the visit
    # order and the scan of identities and of seeded grids over one-byte
    # and int32 ids equal the stack walk's, read one cell at a time
    rng = random.Random(13)
    many = [f"t{i}" for i in range(300)]
    for k in range(7):
        n = 1 << k
        inputs = [identity(n)]
        for alphabet in ("01", "0123456789abcdef", many):
            inputs.append(Matrix2D.from_tokens([[rng.choice(alphabet) for _ in range(n)] for _ in range(n)]))
        for kind in SCAN_KINDS:
            assert scan_coords(n, kind) == stack_scan_coords(n, kind), (n, kind)
            for m in inputs:
                got, want = scan(m, kind), tuple_scan(m, kind)
                assert got == want and repr(got) == repr(want), (n, kind, m.alphabet)


def test_scan_coords_is_a_continuous_permutation():
    for kind in SCAN_KINDS:
        for n in (1, 2, 4, 8, 16):
            pts = scan_coords(n, kind)
            assert sorted(pts) == [(y, x) for y in range(1, n + 1) for x in range(1, n + 1)]
            for (y1, x1), (y2, x2) in zip(pts, pts[1:]):
                assert abs(y1 - y2) + abs(x1 - x2) == 1, (kind, n)


def test_scan_variants_are_distinct_symmetries():
    n = 4
    base = scan_coords(n, "rs")
    seen = {tuple(scan_coords(n, k)) for k in SCAN_KINDS}
    assert len(seen) == 4
    # all variants start or end where a reflected/rotated copy should
    assert base[0] == (1, 1) and base[-1] == (n, 1)


def test_curve_linearization_of_identity():
    assert word(phlin(identity(2))) == "1010"
    assert word(phlin(identity(4))) == "1010000010100000"
    prev = None
    for k in range(1, 7):
        p = word(phlin(identity(2 ** k)))
        assert len(p) == 4 ** k
        assert p.count("1") == 2 ** k
        if prev is not None:
            pad = "0" * 4 ** (k - 1)
            assert p == prev + pad + prev + pad
        prev = p


def test_curve_kind_alternates_with_order():
    assert [phlin_kind(2 ** k) for k in range(1, 6)] == ["rs", "ds", "rs", "ds", "rs"]
    for k in range(1, 7):
        n = 2 ** k
        assert scan(identity(n), phlin_kind(n)) == phlin(identity(n))


def test_identity_diagonal_stays_repetitive_after_curve():
    for k in range(1, 6):
        assert delta(phlin(identity(2 ** k))).value == 2


def test_onerun_certificate():
    for k in range(1, 7):
        assert onerun_certificate(phlin(identity(2 ** k)), k)
    # a second one breaks the single-run gap structure
    bad = mat("1010100010100000")
    assert not onerun_certificate(bad, 2)
    assert not onerun_certificate(mat("0000"), 1)


def test_counter_row_attractor():
    for k in range(1, 9):
        att = ek_rlin_attractor(k)
        assert len(att.positions) == 3 * k - 1
        lin = rlin(ek(k))
        assert is_attractor(lin, att).ok
    assert sorted(ek_rlin_attractor(2).positions) == [(1, 1), (1, 2), (1, 5), (1, 7), (1, 8)]


def test_shape_requirements():
    for bad in (identity(3), zeros(2, 4), mat("ab")):
        try:
            phlin(bad)
        except NotPowerOfTwoSquare:
            continue
        raise AssertionError(f"accepted {bad.rows}x{bad.cols}")
    try:
        scan_coords(3, "rs")
    except NotPowerOfTwoSquare:
        pass
    else:
        raise AssertionError("scan_coords accepted n=3")
    try:
        scan_coords(4, "zz")
    except BadParam:
        pass
    else:
        raise AssertionError("unknown scan kind accepted")
