"""Deterministic generator families used throughout the test-beds.

Every generator is pure: same parameters, bit-identical output. Caps keep
instances at desk scale (at most ~16M cells). The binary families build
their cell ids directly; the result equals the ``Matrix2D.from_tokens``
build of the same token grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable

from .core2d import MAX_CELLS, Matrix2D
from .errors import BadParam, TooLarge


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise BadParam(msg)


def _fits(rows: int, cols: int) -> None:
    """The cell cap, checked before the cells are built (as from_tokens)."""
    if rows * cols > MAX_CELLS:
        raise TooLarge(f"{rows}x{cols} exceeds the {MAX_CELLS}-cell cap")


def _bits(rows: int, cols: int, cells: list[int]) -> Matrix2D:
    """The matrix of row-major 0/1 ``cells`` over the tokens "0" and "1"
    that occur in it."""
    if 1 not in cells:
        return Matrix2D(rows, cols, tuple(cells), ("0",))
    if 0 not in cells:
        return Matrix2D(rows, cols, (0,) * len(cells), ("1",))
    return Matrix2D(rows, cols, tuple(cells), ("0", "1"))


def identity(n: int) -> Matrix2D:
    """n x n identity: 1 on the main diagonal, 0 elsewhere."""
    _check(n >= 1, f"identity needs n >= 1, got {n}")
    _fits(n, n)
    cells = [0] * (n * n)
    cells[:: n + 1] = [1] * n
    return _bits(n, n, cells)


def zeros(m: int, n: int) -> Matrix2D:
    """All-zero m x n matrix."""
    _check(m >= 1 and n >= 1, f"zeros needs m,n >= 1, got {m},{n}")
    _fits(m, n)
    return Matrix2D(m, n, (0,) * (m * n), ("0",))


def alt(m: int, n: int) -> Matrix2D:
    """m x n matrix whose every row is 0101..."""
    _check(m >= 1 and n >= 1, f"alt needs m,n >= 1, got {m},{n}")
    _fits(m, n)
    return _bits(m, n, [j % 2 for j in range(n)] * m)


def diagpad(m: int, n: int) -> Matrix2D:
    """Identity of order min(m,n) in the top-left corner, zeros elsewhere."""
    _check(m >= 1 and n >= 1, f"diagpad needs m,n >= 1, got {m},{n}")
    _fits(m, n)
    k = min(m, n)
    cells = [0] * (m * n)
    cells[: k * (n + 1) : n + 1] = [1] * k
    return _bits(m, n, cells)


def staircase(n: int) -> Matrix2D:
    """Identity of order n-1, a row of 0's appended below, then a column of
    1's appended at the right; the result is n x n."""
    _check(n >= 2, f"staircase needs n >= 2, got {n}")
    _fits(n, n)
    cells = [0] * (n * n)
    cells[:: n + 1] = [1] * n  # the last diagonal cell is in the 1's column
    cells[n - 1 :: n] = [1] * n
    return _bits(n, n, cells)


def ek(k: int) -> Matrix2D:
    """k x 2^k matrix whose columns are the binary numbers 0..2^k-1 with the
    least-significant bit in row 1; equivalently row i is the periodic string
    (0^(2^(i-1)) 1^(2^(i-1)))^(2^(k-i))."""
    _check(1 <= k <= 20, f"ek needs 1 <= k <= 20, got {k}")
    _fits(k, 1 << k)
    cells: list[int] = []
    for i in range(1, k + 1):
        half = 1 << (i - 1)
        cells += ([0] * half + [1] * half) * (1 << (k - i))
    return _bits(k, 1 << k, cells)


def debruijn_bits(k: int) -> list[int]:
    """The lexicographically least binary de Bruijn cycle of order k, as bits.

    Standard Lyndon-word concatenation: join, in lexicographic order, every
    binary Lyndon word whose length divides k.
    """
    _check(1 <= k <= 20, f"debruijn needs 1 <= k <= 20, got {k}")
    seq: list[int] = []
    a = [0] * (k + 1)

    def gen(t: int, p: int) -> None:
        if t > k:
            if k % p == 0:
                seq.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, 2):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return seq


def debruijn1d(k: int) -> Matrix2D:
    """1 x (2^k + k - 1) string: the least de Bruijn cycle of order k
    linearized by appending its first k-1 symbols, so every binary string of
    length k occurs exactly once as a window."""
    bits = debruijn_bits(k)
    bits = bits + bits[: k - 1]
    return Matrix2D.from_tokens([[str(b) for b in bits]])


def bk(k: int) -> Matrix2D:
    """n x n de Bruijn product matrix, n = 2^k + k - 1: cell (i, j) is the
    pair (D_k[i], D_k[j]) encoded as the id 2*D_k[i] + D_k[j]."""
    _check(1 <= k <= 12, f"bk needs 1 <= k <= 12, got {k}")
    d = debruijn_bits(k)
    d = d + d[: k - 1]
    return Matrix2D.from_tokens(
        [[str(2 * a + b) for b in d] for a in d]
    )


def cmblocks(n: int) -> Matrix2D:
    """n x n (n an even perfect square): row 1 is B_1 B_2 ... B_{sqrt(n)/2}
    with B_i = 1^i 0^(2*sqrt(n)-i); every other row is all '#'."""
    r = isqrt(n)
    _check(r * r == n and n % 2 == 0, f"cmblocks needs an even perfect square, got {n}")
    first: list[str] = []
    for i in range(1, r // 2 + 1):
        first.extend(["1"] * i + ["0"] * (2 * r - i))
    assert len(first) == n
    return Matrix2D.from_tokens([first] + [["#"] * n] * (n - 1))


def bdk(d: int, k: int):
    """d-dimensional de Bruijn hypercube (an NdString); see multidim.bdk."""
    from . import multidim

    return multidim.bdk(d, k)


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its integer parameters, e.g. FamilySpec('ek', (3,))."""

    name: str
    params: tuple[int, ...]

    def build(self):
        if self.name not in FAMILIES:
            raise BadParam(f"unknown family {self.name!r}")
        arity, builder = FAMILIES[self.name]
        if len(self.params) != len(arity):
            raise BadParam(
                f"family {self.name} takes parameters {arity}, "
                f"got {self.params}"
            )
        return builder(*self.params)


#: family name -> (parameter names, builder)
FAMILIES: dict[str, tuple[tuple[str, ...], Callable]] = {
    "identity": (("n",), identity),
    "zeros": (("m", "n"), zeros),
    "alt": (("m", "n"), alt),
    "diagpad": (("m", "n"), diagpad),
    "staircase": (("n",), staircase),
    "ek": (("k",), ek),
    "debruijn1d": (("k",), debruijn1d),
    "bk": (("k",), bk),
    "cmblocks": (("n",), cmblocks),
    "bdk": (("d", "k"), bdk),
}


def small_instances(max_rows: int, max_cols: int) -> list[tuple[FamilySpec, Matrix2D]]:
    """Every 2D family instance that fits in max_rows x max_cols.

    Used by the randomized-corpus suites; bdk is excluded (not 2D).
    """
    out: list[tuple[FamilySpec, Matrix2D]] = []

    def keep(spec: FamilySpec) -> None:
        try:
            m = spec.build()
        except BadParam:
            return
        if m.rows <= max_rows and m.cols <= max_cols:
            out.append((spec, m))

    for n in range(1, max_rows + 1):
        keep(FamilySpec("identity", (n,)))
        keep(FamilySpec("staircase", (n,)))
        keep(FamilySpec("cmblocks", (n,)))
    for m in range(1, max_rows + 1):
        for n in range(1, max_cols + 1):
            keep(FamilySpec("zeros", (m, n)))
            keep(FamilySpec("alt", (m, n)))
            keep(FamilySpec("diagpad", (m, n)))
    for k in range(1, 6):
        keep(FamilySpec("ek", (k,)))
        keep(FamilySpec("debruijn1d", (k,)))
        keep(FamilySpec("bk", (k,)))
    return out
