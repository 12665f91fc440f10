"""Repetitiveness measures on 2D strings: delta, attractors, gamma.

delta is reported as an exact rational (Fraction) so argmax shapes are
reproducible. It is ``core2d.densest_shape``, which skips the ranking passes
that cannot change the answer (shapes above one with at most one pair of
equal windows, which are all distinct; shapes whose window count bound is
below the best value so far; and, except with a table or on squares only,
shapes past a pass where every window extends in one way, whose windows are
all fixed by a smaller shape) instead of making one pass per shape; all three
prunings are exact, and each pass made is linear-time counting in the usual
case of dense window ids. gamma is computed exactly by a
minimum-hitting-set search over distinct factor contents (the problem is
NP-hard, so only tiny instances are accepted — see the cell_limit
parameter).

The attractor check and the unique-factor lower bound walk the same ranking
chains as delta (``core2d.rank_windows``) and end a chain once nothing left
on it can change their answer. Three exact rules do this:

* covered frontier (``is_attractor``): once every window of a shape holds a
  candidate, every window of every larger shape does, so each chain ends at
  the first shape whose windows are all hit;
* failure cut (``is_attractor``): the walk goes in ascending (k2, k1) order
  but the failure reported is the first in (k1, k2) order, so after a
  failure at (f1, f2) every chain ends at k1 >= f1, and with f1 = 1 (or
  with ``square_only``) the walk ends;
* dominance (``gamma_lower_bound_unique``): the greedy never takes a unique
  window that holds a smaller unique window, which sorts first and is either
  taken or blocked by what is taken. So on the k x 1 and 1 x k chains only
  the unique windows whose two windows of the shape before are not unique
  are listed, and such a chain ends at its first shape whose windows are all
  unique, since every larger window holds one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .budget import WorkBudget, ensure_budget
from .core2d import (
    FactorShape,
    Matrix2D,
    Position,
    RANKING_2D,
    ShapeBox,
    TokenGrid,
    _rect_mask,
    densest_shape,
    iter_shape_labels,
    rank_windows,
    submatrix,
)
from .errors import BadParam, OutOfBounds, TooLarge


@dataclass(frozen=True)
class DeltaResult:
    """delta value with the shape that attains it.

    Ties between shapes are broken by smallest area k1*k2, then smallest k1.
    ``table`` maps (k1, k2) -> P_M(k1, k2) when requested.
    """

    value: Fraction
    argmax_shape: FactorShape
    table: Mapping[tuple[int, int], int] | None = None


def delta(
    m: Matrix2D,
    square_only: bool = False,
    with_table: bool = False,
    budget: WorkBudget | None = None,
) -> DeltaResult:
    """max over factor shapes of P_M(k1, k2) / (k1*k2), as an exact rational."""
    value, shape, table = densest_shape(
        m._grid, square_only, ensure_budget(budget), RANKING_2D, with_table
    )
    return DeltaResult(value, FactorShape(*shape), table)


def delta_square(
    m: Matrix2D,
    with_table: bool = False,
    budget: WorkBudget | None = None,
) -> DeltaResult:
    """delta restricted to square factor shapes (k, k)."""
    return delta(m, square_only=True, with_table=with_table, budget=budget)


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
    grid = np.zeros((rows, cols), dtype=np.int64)
    for i, j in positions:
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise OutOfBounds(f"attractor position ({i},{j}) outside matrix")
        grid[i - 1, j - 1] = 1
    prefix = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    prefix[1:, 1:] = grid.cumsum(0).cumsum(1)

    @lru_cache(maxsize=1)  # a shape a stop asks about is ranked next
    def hits(k1: int, k2: int) -> np.ndarray:
        """Which k1 x k2 windows hold a candidate, in row-major order."""
        rows_w, cols_w = rows - k1 + 1, cols - k2 + 1
        window_sum = (
            prefix[k1 : k1 + rows_w, k2 : k2 + cols_w]
            - prefix[:rows_w, k2 : k2 + cols_w]
            - prefix[k1 : k1 + rows_w, :cols_w]
            + prefix[:rows_w, :cols_w]
        )
        return window_sum.ravel() > 0

    cut = rows + 1  # k1 of the failure found so far

    def stop(axis: int, shape: tuple[int, ...]) -> bool:
        k1, k2 = shape
        if axis == 1:
            k1 = k2 if square_only else 1  # the smallest shape wanted at k2
        elif square_only:
            return False  # the chain only leads to (k2, k2), asked above
        # covered frontier: once every window of a shape holds a candidate,
        # so does every window of a larger shape
        return k1 >= cut or bool(hits(k1, k2).all())

    failure: tuple[int, int, int] | None = None  # (k1, k2, first occurrence)
    for (k1, k2), labels, count in rank_windows(
        m._grid, ShapeBox((rows, cols), square_only), budget, RANKING_2D, stop
    ):
        flat = labels.ravel()
        hit_count = np.bincount(flat[hits(k1, k2)], minlength=count)
        if hit_count.min() == 0:
            # failure cut: the walk is in (k2, k1) order, the failure
            # reported the first in (k1, k2) order, so only shapes with a
            # smaller k1 are ranked from here on
            first = int(np.argmax(flat == np.argmin(hit_count)))
            failure, cut = (k1, k2, first), k1
    if failure is None:
        return AttractorCheck(True)
    k1, k2, first = failure
    cols_w = cols - k2 + 1
    i, j = first // cols_w + 1, first % cols_w + 1
    content = submatrix(m, i, j, i + k1 - 1, j + k2 - 1).tokens()
    return AttractorCheck(False, FactorShape(k1, k2), content, (i, j))


# ---------------------------------------------------------------------------
# exact gamma (minimum hitting set)
# ---------------------------------------------------------------------------


def _coverage_masks(
    m: Matrix2D, square_only: bool, budget: WorkBudget
) -> list[int]:
    """For every distinct factor F, the bitmask (over cells, RMO bit order)
    of the union of its occurrence rectangles — the positions that can 'hit'
    F. Deduplicated and reduced to the antichain of minimal sets (a superset
    constraint is implied by any of its subsets)."""
    n = m.cols
    masks: set[int] = set()
    for k1, k2, labels in iter_shape_labels(
        m, ShapeBox((m.rows, m.cols), square_only), budget
    ):
        rect = _rect_mask(k1, k2, n)
        by_label: dict[int, int] = {}
        for i, row in enumerate(labels.tolist()):
            for shift, lab in enumerate(row, i * n):
                by_label[lab] = by_label.get(lab, 0) | rect << shift
        masks.update(by_label.values())
    kept: list[int] = []
    for cand in sorted(masks, key=lambda s: (bin(s).count("1"), s)):
        for prev in kept:
            if prev & cand == prev:
                break
        else:
            kept.append(cand)
    return kept


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
    constraints = _coverage_masks(m, square_only, budget)
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


def _unique_windows(
    m: Matrix2D, budget: WorkBudget
) -> list[tuple[int, int, int, int, int]]:
    """The windows of the k x 1 and 1 x k shapes that occur exactly once,
    less those that ``gamma_lower_bound_unique``'s greedy can never take by
    dominance (see the module docstring), as (k1 * k2, -k1, i, j, k2) with
    (i, j) the 0-based top-left cell, sorted."""
    rows, cols = m.rows, m.cols
    shapes = {(k, 1) for k in range(1, rows + 1)}
    shapes |= {(1, k) for k in range(1, cols + 1)}
    # the unique windows of the last k x 1 and 1 x k shape ranked, and the
    # first k at which those chains have only unique windows
    tall_unique = wide_unique = None
    tall_end, wide_end = rows, cols

    def stop(axis: int, shape: tuple[int, ...]) -> bool:
        k1, k2 = shape
        return k2 > wide_end if axis == 1 else k2 == 1 and k1 > tall_end

    windows: list[tuple[int, int, int, int, int]] = []
    for (k1, k2), labels, count in rank_windows(
        m._grid, sorted(shapes), budget, RANKING_2D, stop
    ):
        unique = (np.bincount(labels.ravel(), minlength=count) == 1)[labels]
        # on a chain, drop windows holding a unique one of the shape before
        keep = unique
        if k2 == 1:
            if k1 > 1:
                keep = keep & ~tall_unique[:-1] & ~tall_unique[1:]
            tall_unique = unique
            if count == labels.size:
                tall_end = k1
        if k1 == 1:
            if k2 > 1:
                keep = keep & ~wide_unique[:, :-1] & ~wide_unique[:, 1:]
            wide_unique = unique
            if count == labels.size:
                wide_end = k2
        ii, jj = np.nonzero(keep)
        windows.extend(
            (k1 * k2, -k1, i, j, k2) for i, j in zip(ii.tolist(), jj.tolist())
        )
    windows.sort()
    return windows


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
    windows = _unique_windows(m, ensure_budget(budget))
    n = m.cols
    shape = None
    occupied = 0
    taken = 0
    for _, neg_k1, i, j, k2 in windows:
        if shape != (neg_k1, k2):  # the windows of a shape come together
            shape, rect = (neg_k1, k2), _rect_mask(-neg_k1, k2, n)
        window = rect << (i * n + j)
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
