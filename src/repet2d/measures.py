"""Repetitiveness measures on 2D strings: delta, attractors, gamma.

delta is reported as an exact rational (Fraction) so argmax shapes are
reproducible. It is ``core2d.densest_shape``, which skips the ranking passes
that cannot change the answer (shapes above one with at most one pair of
equal windows, which are all distinct, and shapes whose window count bound is
below the best value so far) instead of making one pass per shape; both
prunings are exact, and each pass made is linear-time counting in the usual
case of dense window ids. gamma is computed exactly by a
minimum-hitting-set search over distinct factor contents (the problem is
NP-hard, so only tiny instances are accepted — see the cell_limit
parameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    densest_shape,
    iter_shape_labels,
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
    whose rectangle contains a candidate position?"""
    positions = (
        candidate.positions
        if isinstance(candidate, AttractorSet)
        else AttractorSet.of(candidate).positions
    )
    budget = ensure_budget(budget)
    grid = np.zeros((m.rows, m.cols), dtype=np.int64)
    for i, j in positions:
        if not (1 <= i <= m.rows and 1 <= j <= m.cols):
            raise OutOfBounds(f"attractor position ({i},{j}) outside matrix")
        grid[i - 1, j - 1] = 1
    prefix = np.zeros((m.rows + 1, m.cols + 1), dtype=np.int64)
    prefix[1:, 1:] = grid.cumsum(0).cumsum(1)
    worst: tuple[int, int, int] | None = None  # (k1, k2, first occurrence)
    for k1, k2, labels in iter_shape_labels(
        m, ShapeBox((m.rows, m.cols), square_only), budget
    ):
        rows_w = m.rows - k1 + 1
        cols_w = m.cols - k2 + 1
        window_sum = (
            prefix[k1 : k1 + rows_w, k2 : k2 + cols_w]
            - prefix[:rows_w, k2 : k2 + cols_w]
            - prefix[k1 : k1 + rows_w, :cols_w]
            + prefix[:rows_w, :cols_w]
        )
        hit = (window_sum > 0).ravel()
        flat = labels.ravel()
        n_labels = int(flat.max()) + 1
        hit_count = np.bincount(flat[hit], minlength=n_labels)
        if hit_count.min(initial=1) > 0:
            continue
        bad = int(np.nonzero(hit_count == 0)[0][0])
        first = int(np.argmax(flat == bad))
        if worst is None or (k1, k2) < worst[:2]:
            worst = (k1, k2, first)
    if worst is None:
        return AttractorCheck(True)
    k1, k2, first = worst
    cols_w = m.cols - k2 + 1
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
        seg = ((1 << k2) - 1)
        height, width = labels.shape
        by_label: dict[int, int] = {}
        flat = labels.ravel()
        for idx in range(flat.size):
            i, j = idx // width, idx % width
            rect = 0
            row_mask = seg << j
            for r in range(i, i + k1):
                rect |= row_mask << (r * n)
            lab = int(flat[idx])
            by_label[lab] = by_label.get(lab, 0) | rect
        masks.update(by_label.values())
    ordered = sorted(masks, key=lambda s: (bin(s).count("1"), s))
    kept: list[int] = []
    for cand in ordered:
        if not any(prev & cand == prev for prev in kept):
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


def gamma_lower_bound_unique(
    m: Matrix2D,
    extra_shapes: Iterable[tuple[int, int]] = (),
    budget: WorkBudget | None = None,
) -> int:
    """Size of a greedily-built family of pairwise-disjoint factors that each
    occur exactly once — every attractor needs one position per member, so
    this is a lower bound on gamma.

    Scans all k x 1 and 1 x k shapes by default, plus any extra shapes.
    """
    budget = ensure_budget(budget)
    shapes = {(k, 1) for k in range(1, m.rows + 1)}
    shapes |= {(1, k) for k in range(1, m.cols + 1)}
    shapes |= {
        (k1, k2)
        for k1, k2 in extra_shapes
        if 1 <= k1 <= m.rows and 1 <= k2 <= m.cols
    }
    candidates: list[tuple[int, int, int, int, int]] = []
    for k1, k2, labels in iter_shape_labels(m, sorted(shapes), budget):
        flat = labels.ravel()
        counts = np.bincount(flat)
        unique_labels = set(np.nonzero(counts == 1)[0].tolist())
        if not unique_labels:
            continue
        width = labels.shape[1]
        for idx in np.nonzero(np.isin(flat, list(unique_labels)))[0].tolist():
            i, j = idx // width + 1, idx % width + 1
            candidates.append((k1 * k2, -k1, i, j, k2))
    # smallest area first; taller before wider on ties so that unique columns
    # are not broken up by overlapping unique row segments; then row-major
    candidates.sort()
    occupied = 0
    n = m.cols
    count = 0
    for area, neg_k1, i, j, k2 in candidates:
        k1 = -neg_k1
        rect = 0
        seg = ((1 << k2) - 1) << (j - 1)
        for r in range(i - 1, i - 1 + k1):
            rect |= seg << (r * n)
        if rect & occupied == 0:
            occupied |= rect
            count += 1
    return count


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
