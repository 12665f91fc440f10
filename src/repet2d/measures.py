"""Repetitiveness measures on 2D strings: delta, attractors, gamma.

delta is reported as an exact rational (Fraction) so argmax shapes are
reproducible. It is ``core2d.densest_shape``, which skips the ranking passes
that cannot change the answer (shapes whose window count bound is below the
best value so far, which takes in every shape above one with at most one
pair of equal windows; and, except on squares only, shapes past a pass
where every window extends in one way, whose windows are all fixed by a
smaller shape) instead of making one pass per shape; both prunings are
exact, and each pass made is linear-time counting in the usual case of
dense window ids. A chain whose shapes need counts only (along the first
axis, or along the row of a 1 x n string) switches to one prefix-doubling
suffix sort of its lines with LCPs, which gives the number of distinct
length-k windows for every k at once, when the passes it has left exceed
the sort's cost of 11 * ceil(log2 n) passes. Its windows of extent k are
exactly the length-k substrings of those lines, so the counts equal the
passes' counts; they are read in one loop through the same prunings and
tie-break, and value and shape do not change.
gamma is computed exactly by a minimum-hitting-set search over distinct
factor contents (the problem is NP-hard, so only tiny instances are
accepted — see the cell_limit parameter).

The attractor layer (the attractor check, gamma's constraints and the
unique-factor lower bound) is written once over id grids with any number of
axes and dense ids (every id below the largest occurs, as in ``Matrix2D``
and ``NdString``), with the budget label of each axis's passes; the public
functions are its d = 2 callers. It walks the same ranking chains as delta
(``core2d.rank_windows``), and the check and the bound end a chain once
nothing left on it can change their answer. Three exact rules do this. The
smallest shape a chain leads to, the one its next pass would rank, is at
most every other shape on it or reached from it, both axis by axis and in
lexicographic order (on cubes, every chain of the last axis leads to one
cube, and only that chain is asked about):

* covered frontier (``is_attractor``): once every window of a shape holds a
  candidate, every window of every larger shape does, so a chain ends once
  every window of its smallest shape is hit;
* failure cut (``is_attractor``): the failure reported is the first failing
  shape in lexicographic order, so a chain ends once its smallest shape is
  at least the failure found so far (in 2D: after a failure at (f1, f2)
  only shapes with k1 < f1 are ranked);
* dominance (``gamma_lower_bound_unique``): the greedy never takes a unique
  window that holds a smaller unique window, which sorts first and is either
  taken or blocked by what is taken. So on the line shapes (k along one
  axis, 1 along the others) only the unique windows whose two windows of the
  line before are not unique are listed, and such a chain ends at its first
  shape whose windows are all unique, since every longer window holds one
  of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .budget import WorkBudget, ensure_budget
from .core2d import (
    FactorShape,
    Matrix2D,
    Position,
    RANKING_2D,
    ShapeBox,
    TokenGrid,
    _box_mask,
    densest_shape,
    rank_windows,
    submatrix,
)
from .errors import BadParam, OutOfBounds, TooLarge


@dataclass(frozen=True)
class DeltaResult:
    """delta value with the shape that attains it.

    Ties between shapes are broken by smallest area k1*k2, then smallest k1.
    ``table`` is always None: delta counts only the shapes its prunings
    leave, so it has no table of every count to give. The field stays
    because the recorded benchmark digests hash this repr, ``table=None``
    included; it can go when they are recorded again.
    """

    value: Fraction
    argmax_shape: FactorShape
    table: None = None


def delta(
    m: Matrix2D,
    square_only: bool = False,
    budget: WorkBudget | None = None,
) -> DeltaResult:
    """max over factor shapes of P_M(k1, k2) / (k1*k2), as an exact rational."""
    value, shape = densest_shape(m._grid, square_only, ensure_budget(budget), RANKING_2D)
    return DeltaResult(value, FactorShape(*shape))


def delta_square(m: Matrix2D, budget: WorkBudget | None = None) -> DeltaResult:
    """delta restricted to square factor shapes (k, k)."""
    return delta(m, True, budget)


@dataclass(frozen=True)
class AttractorSet:
    """A set of 1-based positions, kept sorted in row-major order."""

    positions: tuple[Position, ...]

    @classmethod
    def of(cls, positions: Iterable[Position]) -> "AttractorSet":
        return cls(tuple(sorted(set((int(i), int(j)) for i, j in positions))))

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __contains__(self, pos: Position) -> bool:
        return pos in self.positions


@dataclass(frozen=True)
class AttractorCheck:
    """Outcome of is_attractor; truthy iff the candidate set is an attractor.

    On failure the violating factor with the smallest shape in (k1, k2)
    row-major order is reported, identified by its first occurrence in RMO.
    """

    ok: bool
    shape: FactorShape | None = None
    content: TokenGrid | None = None
    occurrence: Position | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_attractor(
    m: Matrix2D,
    candidate: AttractorSet | Iterable[Position],
    square_only: bool = False,
    budget: WorkBudget | None = None,
) -> AttractorCheck:
    """Does every (square, if square_only) factor of M have an occurrence
    whose rectangle contains a candidate position?

    Shapes are ranked in ascending (k2, k1) order, and a chain ends where no
    shape left on it can change the answer (see the module docstring).
    """
    positions = (
        candidate.positions
        if isinstance(candidate, AttractorSet)
        else AttractorSet.of(candidate).positions
    )
    budget = ensure_budget(budget)
    rows, cols = m.rows, m.cols
    hit = np.zeros((rows, cols), dtype=bool)
    for i, j in positions:
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise OutOfBounds(f"attractor position ({i},{j}) outside matrix")
        hit[i - 1, j - 1] = True
    miss = _first_miss(m._grid, hit, square_only, budget, RANKING_2D)
    if miss is None:
        return AttractorCheck(True)
    (k1, k2), (i, j) = miss
    content = submatrix(m, i + 1, j + 1, i + k1, j + k2).tokens()
    return AttractorCheck(False, FactorShape(k1, k2), content, (i + 1, j + 1))


# ---------------------------------------------------------------------------
# the attractor layer, for any number of axes
# ---------------------------------------------------------------------------


def _first_miss(
    grid: np.ndarray,
    hit: np.ndarray,
    cubes: bool,
    budget: WorkBudget,
    what: Sequence[str],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(shape, corner) of the first window shape in lexicographic order
    (cubes only if ``cubes``) with a content no occurrence of which holds a
    cell of the bool grid ``hit``, and the 0-based first cell of that
    content's first occurrence in row-major order (of the contents that
    fail, the one of smallest id); None if there is no such shape."""
    dims, d = grid.shape, grid.ndim
    # prefix[p] counts the hit cells before p on every axis: the hit grid
    # behind a zero slab on each axis, summed along each axis in turn
    prefix = np.zeros([n + 1 for n in dims], dtype=np.int64)
    prefix[(slice(1, None),) * d] = hit
    for axis in range(d):
        prefix.cumsum(axis, out=prefix)

    @lru_cache(maxsize=1)  # a shape a stop asks about is ranked next
    def hits(shape: tuple[int, ...]) -> np.ndarray:
        """Which windows of the shape hold a hit cell, in row-major order."""
        sums = prefix
        for axis, k in enumerate(shape):  # a difference per axis
            lead = (slice(None),) * axis
            sums = sums[lead + (slice(k, None),)] - sums[lead + (slice(-k),)]
        return sums.ravel() > 0

    def stop(shape: tuple[int, ...]) -> bool:
        if cubes:
            if max(shape[:-1], default=1) > 1:
                return False  # the chain only leads to the cube asked about
            shape = (shape[-1],) * d
        return miss is not None and shape >= miss[0] or bool(hits(shape).all())

    miss = None
    for shape, labels, count in rank_windows(grid, ShapeBox(dims, cubes), budget, what, stop):
        flat = labels.ravel()
        hit_count = np.bincount(flat[hits(shape)], minlength=count)
        if hit_count.min() == 0:
            # every shape ranked is below the failure found so far: it was
            # asked about as the smallest shape of its chain, or is the first
            first = int(np.argmax(flat == np.argmin(hit_count)))
            miss = shape, tuple(map(int, np.unravel_index(first, labels.shape)))
    return miss


def _coverage_masks(
    grid: np.ndarray, cubes: bool, budget: WorkBudget, what: Sequence[str]
) -> list[int]:
    """For every distinct window content (of the cubes only if ``cubes``),
    the bitmask (over cells, row-major bit order) of the union of its
    occurrence boxes — the positions that can 'hit' it. Deduplicated and
    reduced to the antichain of minimal sets (a superset constraint is
    implied by any of its subsets)."""
    dims = grid.shape
    cell_index = np.arange(grid.size).reshape(dims)
    masks: set[int] = set()
    for shape, labels, count in rank_windows(grid, ShapeBox(dims, cubes), budget, what):
        box = _box_mask(shape, dims)
        corners = cell_index[tuple(map(slice, labels.shape))]
        by_label = [0] * count
        for lab, corner in zip(labels.ravel().tolist(), corners.ravel().tolist()):
            by_label[lab] |= box << corner
        masks.update(by_label)
    kept: list[int] = []
    for cand in sorted(masks, key=lambda s: (bin(s).count("1"), s)):
        for prev in kept:
            if prev & cand == prev:
                break
        else:
            kept.append(cand)
    return kept


def _unique_windows(
    grid: np.ndarray, budget: WorkBudget, what: Sequence[str]
) -> list[tuple[int, int, int]]:
    """The windows of the line shapes (k along one axis, 1 along the others)
    that occur exactly once, less those that ``gamma_lower_bound_unique``'s
    greedy can never take by dominance (see the module docstring), as
    (k, axis, flat index of the first cell), sorted; the single cell is
    listed under axis 0."""
    dims, d = grid.shape, grid.ndim
    lines = {
        (1,) * a + (k,) + (1,) * (d - a - 1) for a in range(d) for k in range(1, dims[a] + 1)
    }
    # per axis: the unique windows of the last line ranked on its chain, and
    # the first k at which the chain has only unique windows
    before: list[np.ndarray | None] = [None] * d
    end = list(dims)

    def stop(shape: tuple[int, ...]) -> bool:
        k = max(shape)
        return k > end[shape.index(k)]

    windows: list[tuple[int, int, int]] = []
    for shape, labels, count in rank_windows(grid, lines, budget, what, stop):
        unique = (np.bincount(labels.ravel(), minlength=count) == 1)[labels]
        k = max(shape)
        axis = shape.index(k)
        keep = unique
        if k > 1:  # drop windows holding a unique one of the line before
            lead, prev = (slice(None),) * axis, before[axis]
            keep = keep & ~prev[lead + (slice(-1),)] & ~prev[lead + (slice(1, None),)]
        for a in range(d) if k == 1 else (axis,):
            before[a] = unique
            if count == labels.size:
                end[a] = k
        corners = np.ravel_multi_index(np.nonzero(keep), dims)
        windows.extend((k, axis, corner) for corner in corners.tolist())
    windows.sort()
    return windows


# ---------------------------------------------------------------------------
# exact gamma (minimum hitting set)
# ---------------------------------------------------------------------------


def _pack_bound(constraints: list[int]) -> int:
    """Greedy count of pairwise-disjoint constraints: a lower bound on the
    hitting-set size."""
    used = 0
    count = 0
    for c in constraints:
        if c & used == 0:
            used |= c
            count += 1
    return count


def gamma_exact(
    m: Matrix2D,
    square_only: bool = False,
    cell_limit: int = 20,
    budget: WorkBudget | None = None,
) -> AttractorSet:
    """A minimum attractor, found by branch-and-bound hitting-set search.

    Minimality is certified by exhausting every smaller cardinality (after
    constraint deduplication and domination pruning). Deterministic: branches
    follow RMO cell order on the constraint with the fewest positions.
    """
    if m.area > cell_limit:
        raise TooLarge(
            f"gamma_exact is exponential; {m.rows}x{m.cols} has {m.area} "
            f"cells > cell_limit={cell_limit}"
        )
    budget = ensure_budget(budget)
    constraints = _coverage_masks(m._grid, square_only, budget, RANKING_2D)
    n = m.cols

    def bits(mask: int) -> list[int]:
        out = []
        idx = 0
        while mask:
            if mask & 1:
                out.append(idx)
            mask >>= 1
            idx += 1
        return out

    def search(remaining: list[int], left: int) -> list[int] | None:
        if not remaining:
            return []
        if left <= 0 or _pack_bound(remaining) > left:
            return None
        budget.charge(len(remaining), "attractor search")
        pivot = min(remaining, key=lambda c: (bin(c).count("1"), c))
        for cell in bits(pivot):
            bit = 1 << cell
            rest = [c for c in remaining if not c & bit]
            sub = search(rest, left - 1)
            if sub is not None:
                return [cell] + sub
        return None

    for target in range(max(1, _pack_bound(constraints)), m.area + 1):
        chosen = search(constraints, target)
        if chosen is not None:
            return AttractorSet.of(
                (cell // n + 1, cell % n + 1) for cell in chosen
            )
    raise AssertionError("the full position set is always an attractor")


def gamma_lower_bound_unique(
    m: Matrix2D,
    budget: WorkBudget | None = None,
) -> int:
    """Size of a greedily-built family of pairwise-disjoint factors that each
    occur exactly once — every attractor needs one position per member, so
    this is a lower bound on gamma.

    Scans all k x 1 and 1 x k shapes. The greedy goes through the unique
    windows by smallest area, taller before wider on ties (so that unique
    columns are not broken up by overlapping unique row segments), then in
    row-major order, and takes each one that is disjoint from those taken.
    """
    grid = m._grid
    line = None
    occupied = 0
    taken = 0
    for k, axis, corner in _unique_windows(grid, ensure_budget(budget), RANKING_2D):
        if line != (k, axis):  # the windows of a shape come together
            line = (k, axis)
            box = _box_mask([k if a == axis else 1 for a in range(grid.ndim)], grid.shape)
        window = box << corner
        if window & occupied == 0:
            occupied |= window
            taken += 1
    return taken


def diagpad_attractor(m: int, n: int) -> AttractorSet:
    """Attractor of size min(m,n)+1 (or n when m=n) for the matrix with an
    identity block in the top-left corner and zeros elsewhere.

    Interior diagonal cells catch every factor with two or more ones, the
    corner zeros at (1,k) and (k,1) catch the all-zero factors together with
    the off-diagonal pad cell, and single-one row/column factors recur one
    step down the diagonal.  The construction needs min(m,n) >= 3.
    """
    k = min(m, n)
    if k < 3:
        raise BadParam(f"need min(m,n) >= 3, got {m},{n}")
    positions = [(i, i) for i in range(2, k)]
    positions += [(1, k), (k, 1)]
    if n > m:
        positions.append((k, k + 1))
    elif m > n:
        positions.append((k + 1, k))
    return AttractorSet.of(positions)
