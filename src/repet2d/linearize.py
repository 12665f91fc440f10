"""Linearizations of matrices into 1D strings.

Two flatteners are provided: plain row-major order (``rlin``) and a
Hilbert-style plane-filling curve (``phlin``) built from four mutually
recursive quadrant scans.  The scans are named after the side of the
square on which they finish: a right scan ``rs`` enters at the top-left
corner and exits on the right edge, and symmetrically for ``ds`` (down),
``us`` (up) and ``ls`` (left).  Consecutive cells of a scan are always
adjacent in the matrix, which is what makes the curve useful: a short
factor of the linearized string maps back to a small connected region.

Also here: an explicit small attractor for the row-major linearization
of the binary-counter family, and a certificate that a string contains
the widening one-zero-one gaps characteristic of the Hilbert traversal
of an identity matrix.
"""

from __future__ import annotations

import numpy as np

from .core2d import Matrix2D
from .errors import BadParam, NotPowerOfTwoSquare
from .measures import AttractorSet

RS = "rs"
DS = "ds"
US = "us"
LS = "ls"

# Quadrant visit order per scan kind.  Each entry is (dy, dx, kind) where
# (dy, dx) selects the quadrant in units of the half side; the listed
# order keeps the traversal continuous and exits on the advertised side.
_ORDERS: dict[str, tuple[tuple[int, int, str], ...]] = {
    RS: ((0, 0, DS), (0, 1, RS), (1, 1, RS), (1, 0, US)),
    DS: ((0, 0, RS), (1, 0, DS), (1, 1, DS), (0, 1, LS)),
    US: ((1, 1, LS), (0, 1, US), (0, 0, US), (1, 0, RS)),
    LS: ((1, 1, US), (1, 0, LS), (0, 0, LS), (0, 1, DS)),
}


def rlin(m: Matrix2D) -> Matrix2D:
    """Row-major flattening of ``m`` into a 1 x (rows*cols) string."""
    return Matrix2D(1, m.area, m.ids, m.alphabet)


def _check_side(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwoSquare(f"side must be a power of two, got {n}")


def _scan_order(n: int, kind: str) -> np.ndarray:
    """The 0-based row-major indices of the cells of an n x n grid in the
    visit order of a ``kind`` scan.

    A scan of side 2s is four scans of side s, one per quadrant in the
    order ``_ORDERS`` gives, so the scans of every kind are built a side at
    a time from side 1, each from four shifted copies of the ones before
    (the last side builds ``kind`` only).
    """
    if kind not in _ORDERS:
        raise BadParam(f"unknown scan kind {kind!r}")
    _check_side(n)
    order = dict.fromkeys(_ORDERS, np.zeros(1, dtype=np.int64))
    side = 1
    while side < n:
        kinds = _ORDERS if 2 * side < n else (kind,)
        order = {
            k: np.concatenate([order[sub] + (dy * n + dx) * side for dy, dx, sub in _ORDERS[k]])
            for k in kinds
        }
        side *= 2
    return order[kind]


def scan_coords(n: int, kind: str = RS) -> tuple[tuple[int, int], ...]:
    """1-based (row, col) visit order of a ``kind`` scan over an n x n grid."""
    rows, cols = np.divmod(_scan_order(n, kind), n)
    return tuple(zip((rows + 1).tolist(), (cols + 1).tolist()))


def scan(m: Matrix2D, kind: str = RS) -> Matrix2D:
    """Flatten a 2^k x 2^k matrix along the ``kind`` quadrant scan: one
    gather of the id array."""
    if m.rows != m.cols:
        raise NotPowerOfTwoSquare(f"scan needs a square matrix, got {m.rows}x{m.cols}")
    return Matrix2D(1, m.area, m.ids.take(_scan_order(m.cols, kind)), m.alphabet)


def phlin_kind(n: int) -> str:
    """Scan kind used by ``phlin`` for side ``n``: rs when log2(n) is odd."""
    _check_side(n)
    return RS if (n.bit_length() - 1) % 2 else DS


def phlin(m: Matrix2D) -> Matrix2D:
    """Plane-filling (Hilbert-style) flattening of a 2^k x 2^k matrix.

    The scan kind alternates with the parity of log2(n) so that the curve
    for side 2n contains four copies of the side-n curve.
    """
    if m.rows != m.cols:
        raise NotPowerOfTwoSquare(f"phlin needs a square matrix, got {m.rows}x{m.cols}")
    return scan(m, phlin_kind(m.rows))


def ek_rlin_attractor(k: int) -> AttractorSet:
    """Attractor of size 3k-1 for rlin(ek(k)).

    Row i of the counter matrix flattens to the segment starting at
    (i-1)*2^k + 1; within that segment the positions kept are the start,
    the end of the first all-zero run (length 2^(i-1)) and the end of the
    first zero/one period (length 2^i).  For i = 1 the last two coincide,
    hence 3k-1 positions in total.
    """
    if k < 1:
        raise BadParam(f"k must be >= 1, got {k}")
    positions: set[tuple[int, int]] = set()
    seg = 1 << k
    for i in range(1, k + 1):
        start = (i - 1) * seg
        positions.add((1, start + 1))
        positions.add((1, start + 1 + (1 << (i - 1))))
        positions.add((1, start + (1 << i)))
    return AttractorSet.of(positions)


def onerun_certificate(s: Matrix2D, k: int) -> bool:
    """True iff ``1 0^t 1`` occurs in the 1-row string ``s`` for every
    t = (4**l - 1) // 3 with l = 1..k.

    Those are exactly the gap lengths produced between consecutive ones
    when the identity matrix of side 2^k is flattened along ``phlin``:
    each doubling of the side inserts an all-zero quadrant of four times
    the previous area between two diagonal halves, so the one-runs of the
    flattened string are separated by k distinct exponentially growing
    gaps.  A factor ``1 0^t 1`` occurs iff two consecutive ones are
    exactly t+1 apart, which is what the gap set records.
    """
    if s.rows != 1:
        raise BadParam(f"certificate expects a 1-row string, got {s.rows} rows")
    if k < 1:
        raise BadParam(f"k must be >= 1, got {k}")
    ones = [j for j, tok in enumerate(s.row_tokens(1), 1) if tok == "1"]
    gaps = {b - a - 1 for a, b in zip(ones, ones[1:])}
    return all((4**level - 1) // 3 in gaps for level in range(1, k + 1))
