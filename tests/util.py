"""Shared test helpers: naive oracles recomputed with dumb nested loops.

Everything here avoids the library's numpy ranking machinery on purpose,
so the fast implementations are checked against independent code. The
exceptions are the former implementations kept as oracles:
``unique_dense_rank``, the dense rank that sorted a sparse pair-id range
with np.unique, which the suffix sort's counts must not tell apart from the
packed-key sort; ``reference_dense_rank``, the rank kernel with one
counting crossover for every pass size, an int32 table widened after its
gather and a sort path that ranks from 1, which the kernel must match in
labels, values, dtype and shape on both sides of each of its boundaries,
and under which delta must give the same repr and ledger; ``reference_shape_labels``, the 2D-only window ranking that
the d-axis ranking must reproduce id for id; ``reference_window_ids``, the
window-id table that ranked each shape lazily on its own chain loop, which the table
read off one ranking walk must match label for label and count for count,
charging no budget either; ``reference_delta``/``reference_delta_nd``,
the delta that ranks every shape, which the pruned delta must reproduce in
value and argmax shape; ``pass_only_densest_shape``, delta with every
pruning and saturation as a rule of its own but counting each shape by a
ranking pass, which the delta whose long chains count from a suffix sort
must reproduce in repr and whose stop answers the delta must reproduce; ``reference_is_attractor`` and
``reference_gamma_lower_bound_unique``, the attractor check and the
unique-factor bound that rank every shape, which the early-stopping ones
must reproduce in result with no more steps per label;
``reference_coverage_masks``, gamma's constraints built from numpy scalars
bit by bit, which must come out mask for mask and step for step;
``two_axis_is_attractor``, ``two_axis_coverage_masks`` and
``two_axis_unique_windows``/``two_axis_gamma_lower_bound_unique`` with
``_rect_mask``, the attractor layer as it was written for two axes only,
which the layer for any number of axes must reproduce in result and step
for step; ``iter_shape_labels``, the 2D label wrapper over
``rank_windows`` that the oracles rank with; the
recursive grammar walks ``recursive_grammar_tree``, ``recursive_format_grammar`` and
``recursive_from_grammar``, and ``recursive_grammar_from_contents``, which
the grammar search's result must reproduce name for name and rule for rule;
``reference_analyze_boxes``, the scheme
check that fills a Python list box by box and walks every copy chain cell
by cell with ``walk_chains``, which the pointer-jumping check must match
fault for fault; ``pointer_jumping_analyze_boxes``, that check as it was
before self-overlapping boxes were written as exits, and
``two_array_analyze_boxes``, the check as it was before its rounds jumped in
place in one array, which the check must match in repr, decoded ids and
cycle cell; ``reference_decoded_cells``, the ids of an oracle's roots read
one dict lookup a cell; ``dict_encode_tokens``, the token
encoding that str()-ed every token and looked each up in a dict, which the
encoding must match in ids, alphabet and error; ``TupleMatrix2D`` and
``TupleNdString``, the strings that stored a tuple of cell ids, which the
strings over an id array must match in cells, repr, equality, hash and
pickling; ``tokens_submatrix``, the factor cut out of the whole token grid,
which the factor sliced from the id array must equal;
``tokens_concat_h``/``tokens_concat_v``, the concatenations that joined
token grids, which the concatenation of id arrays must equal in repr and
alphabet;
``stack_scan_coords``/``tuple_scan``, the quadrant scan walked cell by cell
on a stack, which the scan gathered from the id array must equal; ``reference_b_exact``, the scheme search that walks every
chain with ``walk_chains`` after each source choice, which the search that
walks only the new part's chains must reproduce in result, exception text,
step ledger and budget; and
``reference_build_index``/``reference_access``, the heavy-path index that
switches over the 2D rule classes, which the index reading rules by axis
must reproduce in repr, answers, step ledger and budget fault;
``reference_build_blocktree``, the block tree built by a recursive closure
that charges one step a node, its level sides ranked on one chain walk,
which the tree built a level at a time from sides ranked by doubling must
reproduce in repr, block-tree steps and budget fault; ``reference_scan``/
``reference_full_scan``, the scan that calls ``access`` cell by cell, which
the filled and the batched scans must match in report, histogram, step
ledger and budget fault; and
``reference_g_exact``, the recursive grammar search that recomputes the
closure of its member set at every node, and ``slicing_g_exact``, the search
over content ids that slices and hashes token grids, which the search over
window ids must reproduce in result, work and step ledger.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod
from operator import add, floordiv, le, mul, sub

import numpy as np

from repet2d import Matrix2D
from repet2d.accept import random_matrix
from repet2d.access2d import AccessIndex, HeavyPath, ScanReport, SuffixForest, access, hop_bound
from repet2d.blocktree2d import BlockNode, BlockTree, _fresh_sentinel, iter_nodes
from repet2d.budget import WorkBudget, ensure_budget
from repet2d.core2d import (
    MAX_CELLS, RANKING_2D, FactorShape, Position, ShapeBox, TokenGrid, WindowIds,
    _check_shape, rank_windows, submatrix,
)
from repet2d.core2d import _pair_rank as counting_pair_rank
from repet2d.errors import OutOfBounds, ParseError, ShapeTooLarge, TooLarge
from repet2d.grammar2d import (
    Grammar2D,
    GrammarSearchResult,
    GrammarTree,
    GrammarTreeNode,
    Horiz,
    RunH,
    RunV,
    Terminal,
    Vert,
    _rhs_key,
    expand,
    validate_grammar,
)
from repet2d.linearize import _ORDERS
from repet2d.macroscheme import _FREE, MacroScheme2D, Phrase, SchemeCheck, _gather, _write_exits
from repet2d.measures import AttractorCheck, AttractorSet, DeltaResult


def raises(exc_type, fn, *args, **kwargs):
    """Assert that fn(*args) raises exc_type; returns the exception."""
    try:
        fn(*args, **kwargs)
    except exc_type as exc:
        return exc
    except Exception as exc:  # pragma: no cover - diagnostic path
        raise AssertionError(
            f"expected {exc_type.__name__}, got {type(exc).__name__}: {exc}"
        ) from exc
    raise AssertionError(f"expected {exc_type.__name__}, nothing was raised")


def mat(*rows: str) -> Matrix2D:
    """Matrix from strings, one character per cell: mat('01','10')."""
    return Matrix2D.from_tokens([list(r) for r in rows])


def repetitive_cells(rng, dims, kind, alphabet="01"):
    """Row-major tokens of a grid with extents ``dims``: ``"periodic"``
    repeats a random tile, ``"defect"`` is periodic with one cell changed,
    and ``"blocky"`` fills a coarse random grid with equal boxes."""
    if kind == "blocky":
        sides = [rng.randint(1, n) for n in dims]
        coarse = {}
        cells = []
        for pos in product(*map(range, dims)):
            key = tuple(i // s for i, s in zip(pos, sides))
            cells.append(coarse.setdefault(key, rng.choice(alphabet)))
        return cells
    tile_dims = [rng.randint(1, n) for n in dims]
    tile = {pos: rng.choice(alphabet) for pos in product(*map(range, tile_dims))}
    cells = [
        tile[tuple(i % t for i, t in zip(pos, tile_dims))]
        for pos in product(*map(range, dims))
    ]
    if kind == "defect":
        at = rng.randrange(len(cells))
        cells[at] = rng.choice([a for a in alphabet + "x" if a != cells[at]])
    return cells


def repetitive_matrix(rng, rows, cols, kind, alphabet="01") -> Matrix2D:
    cells = repetitive_cells(rng, (rows, cols), kind, alphabet)
    return Matrix2D.from_tokens([cells[r * cols : (r + 1) * cols] for r in range(rows)])


def naive_factors(m: Matrix2D, k1: int, k2: int):
    """content -> list of 1-based top-left occurrences, in row-major order."""
    grid = m.tokens()
    out: dict[tuple, list[tuple[int, int]]] = {}
    for i in range(m.rows - k1 + 1):
        for j in range(m.cols - k2 + 1):
            content = tuple(grid[i + a][j:j + k2] for a in range(k1))
            out.setdefault(content, []).append((i + 1, j + 1))
    return out


def naive_factor_count(m: Matrix2D, k1: int, k2: int) -> int:
    return len(naive_factors(m, k1, k2))


def naive_delta(m: Matrix2D, square_only: bool = False) -> Fraction:
    best = Fraction(0)
    for k1 in range(1, m.rows + 1):
        for k2 in range(1, m.cols + 1):
            if square_only and k1 != k2:
                continue
            best = max(best, Fraction(naive_factor_count(m, k1, k2), k1 * k2))
    return best


def naive_is_attractor(m: Matrix2D, positions) -> bool:
    """Every distinct factor must have an occurrence crossing a position."""
    pos = set(positions)
    for k1 in range(1, m.rows + 1):
        for k2 in range(1, m.cols + 1):
            for occs in naive_factors(m, k1, k2).values():
                if not any(
                    i <= y < i + k1 and j <= x < j + k2
                    for (i, j) in occs
                    for (y, x) in pos
                ):
                    return False
    return True


def naive_gamma(m: Matrix2D) -> int:
    """Minimum attractor size by exhaustive subset search (tiny inputs only)."""
    cells = [(i, j) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)]
    for r in range(1, len(cells) + 1):
        for cand in combinations(cells, r):
            if naive_is_attractor(m, cand):
                return r
    raise AssertionError("unreachable: the full cell set is always an attractor")


def substring_complexity(s: str) -> dict[int, int]:
    """P(k) = number of distinct length-k substrings, for every k."""
    return {
        k: len({s[i:i + k] for i in range(len(s) - k + 1)})
        for k in range(1, len(s) + 1)
    }


def naive_delta_1d(s: str) -> Fraction:
    return max(Fraction(p, k) for k, p in substring_complexity(s).items())


class Ledger(WorkBudget):
    """A work budget that also records, per label, the steps charged and the
    number of charge calls."""

    def __init__(self):
        super().__init__()
        self.steps: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    def charge(self, steps: int, what: str = "window scan") -> None:
        self.steps[what] = self.steps.get(what, 0) + steps
        self.calls[what] = self.calls.get(what, 0) + 1
        super().charge(steps, what)


def _pair_rank(a, b):
    """Dense ranks of the element-wise pairs (a, b); ids follow value order."""
    combo = a.astype(np.int64) * (int(b.max()) + 1) + b
    _, inv = np.unique(combo, return_inverse=True)
    return inv.reshape(a.shape).astype(np.int64)


#: the one counting crossover the former rank kernels used: a pair-id range
#: of at most this many times the number of pairs was counted
FORMER_COUNTING_RANGE = 8


def unique_dense_rank(combo, span):
    """``core2d._dense_rank`` as it was before a sparse range was ranked by
    one packed-key sort: a dense range is marked in a bool array, a sparse
    one is ranked by np.unique."""
    if span > FORMER_COUNTING_RANGE * combo.size:
        values, labels = np.unique(combo, return_inverse=True)
        return labels.reshape(combo.shape).astype(np.int64, copy=False), values
    return _former_counting_rank(combo, span)


def _former_counting_rank(combo, span):
    seen = np.zeros(span, dtype=bool)
    seen[combo] = True
    values = seen.nonzero()[0]
    ids = np.empty(span, dtype=np.int32)
    ids[values] = np.arange(values.size, dtype=np.int32)
    return ids[combo].astype(np.int64), values


def reference_dense_rank(combo, span):
    """``core2d._dense_rank`` as it was before its crossover depended on the
    pass size: counting up to ``FORMER_COUNTING_RANGE`` times the pairs into
    an int32 table, else one sort of packed keys id << shift | position,
    ranked by a cumsum of the run starts minus 1; np.unique past 63 bits."""
    n = combo.size
    if span <= FORMER_COUNTING_RANGE * n:
        return _former_counting_rank(combo, span)
    shift = (n - 1).bit_length()
    if (span - 1).bit_length() + shift > 63:
        values, labels = np.unique(combo, return_inverse=True)
        return labels.reshape(combo.shape).astype(np.int64, copy=False), values
    key = combo.reshape(-1) << shift
    key |= np.arange(n)
    key.sort()
    ids = key >> shift
    start = np.empty(n, dtype=bool)
    start[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=start[1:])
    labels = np.empty(n, dtype=np.int64)
    labels[key & ((1 << shift) - 1)] = np.cumsum(start) - 1
    return labels.reshape(combo.shape), ids[start]


def reference_shape_labels(m: Matrix2D, wanted, budget=None):
    """The 2D window ranking as it was before it was generalized to d axes:
    yields (k1, k2, labels) in ascending (k2, k1) order, widening one column
    at a time ("row ranking") and then heightening one row at a time
    ("column ranking")."""
    budget = ensure_budget(budget)
    per_k2: dict[int, list[int]] = {}
    for k1, k2 in wanted:
        per_k2.setdefault(k2, []).append(k1)
    ids = np.array(m.cells, dtype=np.int64).reshape(m.rows, m.cols)
    horiz = ids
    for k2 in range(1, (max(per_k2) if per_k2 else 0) + 1):
        if k2 > 1:
            budget.charge(horiz.shape[0] * (m.cols - k2 + 1), "row ranking")
            horiz = _pair_rank(horiz[:, : m.cols - k2 + 1], ids[:, k2 - 1 :])
        k1s = sorted(set(per_k2.get(k2, ())))
        if not k1s:
            continue
        vert = horiz
        for k1 in range(1, max(k1s) + 1):
            if k1 > 1:
                budget.charge((m.rows - k1 + 1) * vert.shape[1], "column ranking")
                vert = _pair_rank(vert[: m.rows - k1 + 1, :], horiz[k1 - 1 :, :])
            if k1 in k1s:
                yield k1, k2, vert


class reference_window_ids:
    """``core2d.WindowIds`` as it was before it read one ``rank_windows``
    walk: its own chain loop, ranking each shape lazily on first use from
    the longest shape of its chain ranked so far, charged to no budget."""

    def __init__(self, m: Matrix2D):
        grid = m._grid
        self._ranked = {(1, 1): (grid, int(grid.max()) + 1)}
        self._lists = {}

    def _rank(self, h, w):
        ranked = self._ranked
        if (h, w) in ranked:
            return ranked[h, w]
        cells, cell_range = ranked[1, 1]
        rows, cols = cells.shape
        k = w
        while (1, k) not in ranked:
            k -= 1
        cur, count = ranked[1, k]
        for k in range(k + 1, w + 1):
            cur, values = counting_pair_rank(
                cur[:, : cols - k + 1], count, cells[:, k - 1 :], cell_range
            )
            count = values.size
            ranked[1, k] = cur, count
        base, base_range = ranked[1, w]
        k = h
        while (k, w) not in ranked:
            k -= 1
        cur, count = ranked[k, w]
        for k in range(k + 1, h + 1):
            cur, values = counting_pair_rank(
                cur[: rows - k + 1], count, base[k - 1 :], base_range
            )
            count = values.size
            ranked[k, w] = cur, count
        return cur, count

    def labels(self, h, w):
        got = self._lists.get((h, w))
        if got is None:
            got = self._lists[h, w] = self._rank(h, w)[0].tolist()
        return got

    def count(self, h, w):
        return self._rank(h, w)[1]


def recursive_dims_order(rules) -> list:
    """Variable order of a recursive post-order resolution started from each
    rule in insertion order (children in order): the order validators must
    give their per-variable extents in."""
    done: list = []

    def visit(name):
        if name in done:
            return
        for field in fields(rules[name]):
            if field.name in ("left", "right", "top", "bottom", "first", "second", "child"):
                visit(getattr(rules[name], field.name))
        done.append(name)

    for name in rules:
        visit(name)
    return done


def iter_shape_labels(m: Matrix2D, wanted, budget=None):
    """Yield (k1, k2, labels) for every requested shape of m, or for every
    shape of a ``ShapeBox`` of m's extents, in ascending (k2, k1) order,
    each pass charged to the budget: ``rank_windows`` on a matrix, as the
    library read it before its callers read ``rank_windows`` directly. The
    oracles below rank with it."""
    budget = ensure_budget(budget)
    if not isinstance(wanted, ShapeBox):
        wanted = list(wanted)
    for k1, k2 in wanted:
        _check_shape(m, k1, k2)
    for (k1, k2), labels, _ in rank_windows(m._grid, wanted, budget, RANKING_2D):
        yield k1, k2, labels


def _rect_mask(k1: int, k2: int, n: int) -> int:
    """Bitmask (over the cells of an n-column grid, RMO bit order) of the
    k1 x k2 rectangle at the top-left cell; shifting it left by i * n + j
    moves it to the 0-based cell (i, j)."""
    return sum(((1 << k2) - 1) << (r * n) for r in range(k1))


def reference_delta(m: Matrix2D, square_only=False, with_table=False,
                    budget=None, ranking=iter_shape_labels) -> DeltaResult:
    """delta as it was before pruning: ranks every (square) shape with
    ``ranking`` and keeps the best value, ties to the smallest area and then
    the smallest k1; the table is filled in ranking order."""
    budget = ensure_budget(budget)
    if square_only:
        shapes = [(k, k) for k in range(1, min(m.rows, m.cols) + 1)]
    else:
        shapes = [(k1, k2) for k1 in range(1, m.rows + 1) for k2 in range(1, m.cols + 1)]
    best = best_shape = None
    table = {}
    for k1, k2, labels in ranking(m, shapes, budget):
        count = int(labels.max()) + 1
        if with_table:
            table[(k1, k2)] = count
        value = Fraction(count, k1 * k2)
        if best is None or value > best or (
            value == best and (k1 * k2, k1) < (best_shape[0] * best_shape[1], best_shape[0])
        ):
            best, best_shape = value, (k1, k2)
    return DeltaResult(best, FactorShape(*best_shape), table if with_table else None)


def reference_is_attractor(m: Matrix2D, candidate, square_only=False, budget=None,
                           ranking=iter_shape_labels) -> AttractorCheck:
    """The attractor check as it was before its chains could end early:
    ranks every (square) shape with ``ranking`` and reports the failing
    shape that is first in (k1, k2) order."""
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
    worst = None  # (k1, k2, first occurrence)
    for k1, k2, labels in ranking(m, ShapeBox((m.rows, m.cols), square_only), budget):
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


def reference_gamma_lower_bound_unique(m: Matrix2D, budget=None, ranking=iter_shape_labels) -> int:
    """The unique-factor bound as it was before dominance: ranks every
    k x 1 and 1 x k shape with ``ranking`` and offers every unique window to
    the greedy."""
    budget = ensure_budget(budget)
    shapes = {(k, 1) for k in range(1, m.rows + 1)}
    shapes |= {(1, k) for k in range(1, m.cols + 1)}
    candidates = []
    for k1, k2, labels in ranking(m, sorted(shapes), budget):
        flat = labels.ravel()
        counts = np.bincount(flat)
        unique_labels = set(np.nonzero(counts == 1)[0].tolist())
        if not unique_labels:
            continue
        width = labels.shape[1]
        for idx in np.nonzero(np.isin(flat, list(unique_labels)))[0].tolist():
            i, j = idx // width + 1, idx % width + 1
            candidates.append((k1 * k2, -k1, i, j, k2))
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


def reference_coverage_masks(m: Matrix2D, square_only: bool, budget) -> list[int]:
    """gamma_exact's constraints as they were built before the labels were
    read as lists: every window's rectangle mask built bit by bit from numpy
    scalars."""
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


# ---------------------------------------------------------------------------
# the attractor layer as it was written for two axes only
# ---------------------------------------------------------------------------


def two_axis_is_attractor(m: Matrix2D, candidate, square_only=False, budget=None) -> AttractorCheck:
    """is_attractor as it was for two axes only: hits from a 2D prefix
    table, and a stop that special-cases each axis, with the failure cut at
    k1 >= the failure's k1."""
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

    @lru_cache(maxsize=1)
    def hits(k1, k2):
        rows_w, cols_w = rows - k1 + 1, cols - k2 + 1
        window_sum = (
            prefix[k1 : k1 + rows_w, k2 : k2 + cols_w]
            - prefix[:rows_w, k2 : k2 + cols_w]
            - prefix[k1 : k1 + rows_w, :cols_w]
            + prefix[:rows_w, :cols_w]
        )
        return window_sum.ravel() > 0

    cut = rows + 1

    def stop(axis, shape):
        k1, k2 = shape
        if axis == 1:
            k1 = k2 if square_only else 1
        elif square_only:
            return False
        return k1 >= cut or bool(hits(k1, k2).all())

    failure = None
    for (k1, k2), labels, count in rank_windows(
        m._grid, ShapeBox((rows, cols), square_only), budget, RANKING_2D, axis_stop(stop)
    ):
        flat = labels.ravel()
        hit_count = np.bincount(flat[hits(k1, k2)], minlength=count)
        if hit_count.min() == 0:
            first = int(np.argmax(flat == np.argmin(hit_count)))
            failure, cut = (k1, k2, first), k1
    if failure is None:
        return AttractorCheck(True)
    k1, k2, first = failure
    cols_w = cols - k2 + 1
    i, j = first // cols_w + 1, first % cols_w + 1
    content = submatrix(m, i, j, i + k1 - 1, j + k2 - 1).tokens()
    return AttractorCheck(False, FactorShape(k1, k2), content, (i, j))


def two_axis_coverage_masks(m: Matrix2D, square_only: bool, budget) -> list[int]:
    """gamma_exact's constraints as they were built for two axes only, with
    ``_rect_mask`` rectangles."""
    n = m.cols
    masks: set[int] = set()
    for k1, k2, labels in iter_shape_labels(m, ShapeBox((m.rows, m.cols), square_only), budget):
        rect = _rect_mask(k1, k2, n)
        by_label: dict[int, int] = {}
        for i, row in enumerate(labels.tolist()):
            for shift, lab in enumerate(row, i * n):
                by_label[lab] = by_label.get(lab, 0) | rect << shift
        masks.update(by_label.values())
    kept: list[int] = []
    for cand in sorted(masks, key=lambda s: (bin(s).count("1"), s)):
        if not any(prev & cand == prev for prev in kept):
            kept.append(cand)
    return kept


def two_axis_unique_windows(m: Matrix2D, budget) -> list[tuple[int, int, int, int, int]]:
    """The unique-window listing as it was for two axes only: hand-copied
    k x 1 and 1 x k chains, entries (k1 * k2, -k1, i, j, k2), sorted."""
    rows, cols = m.rows, m.cols
    shapes = {(k, 1) for k in range(1, rows + 1)}
    shapes |= {(1, k) for k in range(1, cols + 1)}
    tall_unique = wide_unique = None
    tall_end, wide_end = rows, cols

    def stop(axis, shape):
        k1, k2 = shape
        return k2 > wide_end if axis == 1 else k2 == 1 and k1 > tall_end

    windows = []
    walk = rank_windows(m._grid, sorted(shapes), budget, RANKING_2D, axis_stop(stop))
    for (k1, k2), labels, count in walk:
        unique = (np.bincount(labels.ravel(), minlength=count) == 1)[labels]
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
        windows.extend((k1 * k2, -k1, i, j, k2) for i, j in zip(ii.tolist(), jj.tolist()))
    windows.sort()
    return windows


def two_axis_gamma_lower_bound_unique(m: Matrix2D, budget=None) -> int:
    """gamma_lower_bound_unique as it was for two axes only: the greedy over
    ``two_axis_unique_windows`` with ``_rect_mask`` rectangles."""
    n = m.cols
    shape = None
    occupied = taken = 0
    for _, neg_k1, i, j, k2 in two_axis_unique_windows(m, ensure_budget(budget)):
        if shape != (neg_k1, k2):
            shape, rect = (neg_k1, k2), _rect_mask(-neg_k1, k2, n)
        window = rect << (i * n + j)
        if window & occupied == 0:
            occupied |= window
            taken += 1
    return taken


def axis_stop(stop):
    """A stop written as ``stop(axis, shape)``, as ``rank_windows`` asks
    it, with the shape only. It asks at shapes (1, ..., 1, k, suffix) with
    k > 1, so the axis is the number of leading extents equal to 1."""
    return lambda shape: stop(next(i for i, k in enumerate(shape) if k > 1), shape)


def reference_delta_nd(x, budget=None):
    """(value, shape) of dD delta over every window shape; ties go to the
    smallest volume, then the smallest shape tuple."""
    best = None
    ranking = ("window ranking",) * x.ndim  # the budget label of each axis
    for shape, labels, _ in rank_windows(x._grid, ShapeBox(x.dims), ensure_budget(budget), ranking):
        vol = prod(shape)
        key = (-Fraction(int(labels.max()) + 1, vol), vol, shape)
        best = key if best is None else min(best, key)
    return -best[0], best[2]


def pass_only_densest_shape(grid, cubes_only, budget, what):
    """``core2d.densest_shape`` as it was before a long chain could count
    the rest of its shapes from one suffix sort: every shape it does not
    prune comes from a ranking pass of ``rank_windows``, so the faster one
    must return the same (value, shape) and, where no chain switches, the
    same step ledger. The shapes go to ``rank_windows`` as a list, which
    keeps the determinism stop of its ``densest`` walk but never sorts a
    chain: only a ``ShapeBox`` of every shape does.

    It keeps saturation as a rule of its own, which the library leaves to
    its bound stop: a chain ends at a shape t above a shape s already
    yielded with count(s) >= W(s) - 1 (W the number of window positions).
    That t has W(t) <= W(s) - 1 <= count(s) and vol(t) > vol(s), so its
    bound W(t)/vol(t) is below count(s)/vol(s) <= best and the bound stop
    ends the chain there too. So the library must answer every stop as this
    one does, and a bound stop that missed such a t would show."""
    dims = grid.shape

    def windows(shape: tuple[int, ...]) -> int:
        return prod(n - k + 1 for n, k in zip(dims, shape))

    # Saturation is looked up per chain. A chain is keyed by (axis, the
    # extents after it) and holds the shapes (1, ..., 1, k, extents);
    # first_sat maps it to the smallest k whose shape saturates every larger
    # one: it has count >= W - 1, or lies above such a shape. The next shape
    # of a chain lies above such a shape iff the shape before it on the
    # chain saturates or, for some later axis, the shape at k with that
    # extent one lower does. Those chains come earlier in the order of
    # reversed tuples, so their entries are final; one that ended on the
    # bound before k has a bound above this chain's, which then ends this
    # chain too.
    first_sat: dict[tuple[int, tuple[int, ...]], int] = {}
    sat_cube = min(dims) + 1  # the smallest cube extent with count >= W - 1
    best_count, best_vol, best_shape = 0, 1, ()

    def stop(axis: int, shape: tuple[int, ...]) -> bool:
        if cubes_only:
            # every wanted shape left on this chain is >= the next cube
            k = shape[-1]
            if k > sat_cube:
                return True
            low = (k,) * len(shape)
        else:
            k, after = shape[axis], shape[axis + 1 :]
            chain = (axis, after)
            if first_sat.get(chain, k) < k or any(
                first_sat.get((axis, after[:j] + (e - 1,) + after[j + 1 :]), k + 1) <= k
                for j, e in enumerate(after)
                if e > 1
            ):
                first_sat.setdefault(chain, k)
                return True
            low = shape
        return windows(low) * best_vol < best_count * prod(low)

    shapes = list(ShapeBox(dims, cubes_only))
    walk = rank_windows(grid, shapes, budget, what, axis_stop(stop), not cubes_only)
    for shape, _, count in walk:
        if count >= windows(shape) - 1:
            if cubes_only:
                sat_cube = min(sat_cube, shape[0])
            else:
                # the shape is on the chains of the axes up to its first
                # extent above 1
                first = next((i for i, k in enumerate(shape) if k > 1), len(shape) - 1)
                for axis in range(first + 1):
                    first_sat.setdefault((axis, shape[axis + 1 :]), shape[axis])
        vol = prod(shape)
        gain = count * best_vol - best_count * vol
        if gain > 0 or gain == 0 and (vol, shape) < (best_vol, best_shape):
            best_count, best_vol, best_shape = count, vol, shape
    return Fraction(best_count, best_vol), best_shape


def recursive_grammar_tree(g) -> GrammarTree:
    """grammar_tree as it was: one Python call per derivation level."""
    info = validate_grammar(g)
    dims = info.dims
    expanded: set = set()
    count = 0

    def visit(name, top, left):
        nonlocal count
        count += 1
        rows, cols = dims[name]
        if name in expanded:
            return GrammarTreeNode(name, "secondary", top, left, rows, cols)
        expanded.add(name)
        token, axis, runs, children = _rhs_key(g.rules[name])
        if token is not None:
            count += 1
            leaf = GrammarTreeNode(token, "terminal", top, left, 1, 1)
            return GrammarTreeNode(name, "primary", top, left, 1, 1, (leaf,))
        corner = [top, left]
        kids = []
        for child in children:
            kids.append(visit(child, *corner))
            corner[axis - 1] += dims[child][axis - 1]
        if runs:
            count += 1
            kids.append(GrammarTreeNode(
                f"{children[0]}{'vh'[axis - 1]}^{runs - 1}",
                "collapsed",
                *corner,
                top + rows - corner[0],
                left + cols - corner[1],
            ))
        return GrammarTreeNode(name, "primary", top, left, rows, cols, tuple(kids))

    root = visit(g.axiom, 1, 1)
    return GrammarTree(root, count)


def recursive_format_grammar(g) -> str:
    """format_grammar as it was: one Python call per derivation level."""
    lines = [f"axiom {g.axiom} rl" if g.is_runlength else f"axiom {g.axiom}"]
    emitted: set = set()
    order: list = []

    def walk(name):
        if name in emitted or name not in g.rules:
            return
        emitted.add(name)
        order.append(name)
        for child in _rhs_key(g.rules[name])[3]:
            walk(child)

    walk(g.axiom)
    order.extend(sorted(set(g.rules) - emitted))
    for name in order:
        rule = g.rules[name]
        if isinstance(rule, Terminal):
            lines.append(f"{name} = term {rule.token}")
        elif isinstance(rule, Horiz):
            lines.append(f"{name} = h {rule.left} {rule.right}")
        elif isinstance(rule, Vert):
            lines.append(f"{name} = v {rule.top} {rule.bottom}")
        elif isinstance(rule, RunH):
            lines.append(f"{name} = rh {rule.count} {rule.child}")
        else:
            lines.append(f"{name} = rv {rule.count} {rule.child}")
    return "\n".join(lines) + "\n"


def recursive_grammar_from_contents(root, members, allow_runs) -> Grammar2D:
    """The former recursive reconstruction of a grammar from a closed content
    set: preorder names X1, X2, ..., each rule added after its children's."""
    names, rules = {}, {}

    def build(c) -> str:
        if c in names:
            return names[c]
        name = names[c] = f"X{len(names) + 1}"
        if _cost(c) == 1:
            rules[name] = Terminal(c[0][0])
            return name
        for kind, param, parts in _options(c, allow_runs):
            if all(p in members for p in parts):
                if kind == "h":
                    rules[name] = Horiz(build(parts[0]), build(parts[1]))
                elif kind == "v":
                    rules[name] = Vert(build(parts[0]), build(parts[1]))
                elif kind == "rh":
                    rules[name] = RunH(param, build(parts[0]))
                else:
                    rules[name] = RunV(param, build(parts[0]))
                return name
        raise AssertionError("content set is not closed")

    axiom = build(root)
    return Grammar2D(axiom, rules)


def recursive_from_grammar(g) -> MacroScheme2D:
    """macroscheme.from_grammar as it was: one Python call per level."""
    info = validate_grammar(g)
    dims = info.dims
    explicit: dict = {}
    phrases: list = []
    primary: dict = {}

    def visit(name, top, left):
        rows, cols = dims[name]
        if name in primary:
            si, sj = primary[name]
            phrases.append(Phrase(top, left, top + rows - 1, left + cols - 1, si, sj))
            return
        primary[name] = (top, left)
        token, axis, runs, children = _rhs_key(g.rules[name])
        if token is not None:
            explicit[(top, left)] = token
        corner = [top, left]
        for child in children:
            visit(child, *corner)
            corner[axis - 1] += dims[child][axis - 1]
        if runs:
            phrases.append(Phrase(*corner, top + rows - 1, left + cols - 1, top, left))

    visit(g.axiom, 1, 1)
    return MacroScheme2D(info.rows, info.cols, explicit, tuple(phrases))


def walk_chains(source: list[int]) -> tuple[list[int] | None, int | None]:
    """Follow every cell's copy chain; a negative ``source[c]`` ends the
    chain at c. Returns ``(root, None)`` where ``root[c]`` is the cell c's
    chain ends at, or ``(None, cell)`` when some chain never ends: ``cell``
    is the first cell repeated on the chain of the smallest such cell.

    The list-filling oracle of ``analyze_boxes`` and ``reference_b_exact``,
    which checks its whole copy map after every source choice, use it.
    """
    root = [-1] * len(source)  # -1 unseen, -2 on the current chain
    for start in range(len(source)):
        if root[start] >= 0:
            continue
        path = []
        cur = start
        while root[cur] == -1:
            nxt = source[cur]
            if nxt < 0:
                root[cur] = cur
                break
            root[cur] = -2
            path.append(cur)
            cur = nxt
        end = root[cur]
        if end == -2:
            return None, cur
        for c in path:
            root[c] = end
    return root, None


def nd_describe(dims, boxes):
    """``describe`` for ``analyze_boxes`` with the messages of the retired
    d-dimensional scheme check: positions print as tuples, boxes by their
    (lo, hi, src) corners and a cycle cell by its flat index."""

    def describe(fault, at):
        if fault == "dims":
            return "BadParam", f"bad dims {dims}"
        if fault == "cap":
            return "TooLarge", f"{prod(dims)} cells exceed the cap"
        if fault == "explicit":
            pos, token, _, outside = at
            if outside:
                return "OutOfBounds", f"explicit cell {pos}"
            return "BadParam", f"invalid token {token!r}"
        if fault in ("inverted", "target"):
            return "OutOfBounds", "box {}..{}".format(*boxes[at])
        if fault == "source":
            return "OutOfBoundsSource", "box {}..{} from {}".format(*boxes[at])
        if fault == "overlap":
            pos = tuple(int(p) + 1 for p in np.unravel_index(at, dims))
            return "NotPartition", f"cell {pos} covered twice"
        if fault == "holes":
            return "NotPartition", f"{at[0]} cells uncovered"
        return "CyclicMap", f"copy cycle through cell {at}"

    return describe


def reference_analyze_boxes(dims, explicit, boxes, size, describe):
    """macroscheme.analyze_boxes as it was: a Python list filled one box and
    one last-axis run at a time, checked for overlap run by run and for
    holes at the end, then every chain walked cell by cell with the scalar
    ``walk_chains``. Returns the check and (root list, {flat index: token})
    like analyze_boxes."""

    def fail(fault, at=None):
        return SchemeCheck(False, size, *describe(fault, at)), None

    d = len(dims)
    if d < 1 or any(n < 1 for n in dims):
        return fail("dims")
    total = prod(dims)
    if total > MAX_CELLS:
        return fail("cap")
    strides = [prod(dims[a + 1:]) for a in range(d)]
    origin = sum(strides)

    def inside(lo, hi):
        return len(lo) == len(hi) == d and min(lo) >= 1 and all(map(le, hi, dims))

    free, explicit_cell = -2, -1
    source = [free] * total
    tokens = {}
    for pos, tok in explicit.items():
        pos = tuple(pos)
        bad_token = not tok or str(tok).split() != [str(tok)]
        if bad_token or not inside(pos, pos):
            return fail("explicit", (pos, tok, bad_token, not inside(pos, pos)))
        f = sum(map(mul, pos, strides)) - origin
        source[f] = explicit_cell
        tokens[f] = str(tok)
    for index, (lo, hi, src) in enumerate(boxes):
        ext = tuple(map(sub, hi, lo))
        if min(ext, default=0) < 0:
            return fail("inverted", index)
        if not inside(lo, hi):
            return fail("target", index)
        if not inside(src, tuple(map(add, src, ext))):
            return fail("source", index)
        t0 = sum(map(mul, lo, strides)) - origin
        shift = sum(map(mul, src, strides)) - origin - t0
        run = ext[-1] + 1
        starts = [t0]
        for e, st in zip(ext, strides[:-1]):
            starts = [t + k for t in starts for k in range(0, (e + 1) * st, st)]
        for t in starts:
            seg = source[t:t + run]
            if seg.count(free) != run:
                taken = next(k for k, v in enumerate(seg) if v != free)
                return fail("overlap", t + taken)
            source[t:t + run] = range(t + shift, t + shift + run)
    holes = source.count(free)
    if holes:
        return fail("holes", (holes, source.index(free)))
    root, cycle = walk_chains(source)
    if root is None:
        return fail("cycle", cycle)
    return SchemeCheck(True, size), (root, tokens)


def pointer_jumping_analyze_boxes(dims, explicit, boxes, size, describe):
    """macroscheme.analyze_boxes as it was before boxes whose source meets
    their target were written as exits: every box cell steps one shift, so
    pointer jumping follows such a box one cell a hop. Same returns."""

    def fail(fault, at=None):
        return SchemeCheck(False, size, *describe(fault, at)), None

    d = len(dims)
    if d < 1 or any(n < 1 for n in dims):
        return fail("dims")
    total = prod(dims)
    if total > MAX_CELLS:
        return fail("cap")
    strides = [prod(dims[a + 1:]) for a in range(d)]
    origin = sum(strides)

    def inside(lo, hi):
        return len(lo) == len(hi) == d and min(lo) >= 1 and all(map(le, hi, dims))

    tokens = {}
    for pos, tok in explicit.items():
        pos = tuple(pos)
        bad_token = not tok or str(tok).split() != [str(tok)]
        if bad_token or not inside(pos, pos):
            return fail("explicit", (pos, tok, bad_token, not inside(pos, pos)))
        tokens[sum(map(mul, pos, strides)) - origin] = str(tok)
    cells = list(tokens)
    step = np.full(total, _FREE, dtype=np.int32)
    step[cells] = 0
    grid = step.reshape(dims)
    cuts = []
    loops = False

    def first_overlap():
        taken = np.zeros(dims, dtype=bool)
        taken.flat[cells] = True
        for cut in cuts:
            view = taken[cut]
            if view.any():
                at = np.unravel_index(int(view.argmax()), view.shape)
                return int(sum((c.start + a) * st for c, a, st in zip(cut, at, strides)))
            view[...] = True
        return None

    def bounds_fault(k, lo, hi, src):
        cell = first_overlap()
        if cell is not None:
            return fail("overlap", cell)
        ext = tuple(map(sub, hi, lo))
        if min(ext, default=0) < 0:
            return fail("inverted", k)
        return fail("source" if inside(lo, hi) else "target", k)

    covered = len(cells)
    ones = (1,) * d
    for k, (lo, hi, src) in enumerate(boxes):
        ext = tuple(map(sub, hi, lo))
        if not (
            len(lo) == len(hi) == len(src) == d
            and min(ext) >= 0
            and min(lo) >= 1
            and min(src) >= 1
            and all(map(le, hi, dims))
            and all(map(le, map(add, src, ext), dims))
        ):
            return bounds_fault(k, lo, hi, src)
        cut = tuple(map(slice, map(sub, lo, ones), hi))
        view = grid[cut]
        shift = sum(map(mul, map(sub, src, lo), strides))
        view[...] = shift
        loops = loops or not shift
        covered += view.size
        cuts.append(cut)
    if covered != total or step.min() == _FREE:
        cell = first_overlap()
        if cell is not None:
            return fail("overlap", cell)
        free = np.flatnonzero(step == _FREE)
        return fail("holes", (len(free), int(free[0])))
    root = np.arange(total, dtype=np.int32)
    root += step
    spare = np.empty_like(root)
    for _ in range(total.bit_length() + 1):
        root.take(root, out=spare, mode="clip")
        if (spare == root).all():
            break
        root, spare = spare, root
    if loops or step.take(root, out=spare, mode="clip").any():
        ends = np.zeros(total, dtype=bool)
        ends[cells] = True
        cur, seen = int(np.argmin(ends[root])), set()
        while cur not in seen:
            seen.add(cur)
            cur += int(step[cur])
        return fail("cycle", cur)
    return SchemeCheck(True, size), (root, tokens)


def two_array_analyze_boxes(dims, explicit, boxes, size, describe):
    """macroscheme.analyze_boxes as it was before the rounds jumped in
    place: the steps turned into pointers beside a second int32 array of
    the grid, each round gathered into the other array, a one-byte mask of
    the explicit cells showed after each round whether every root was
    explicit, and the tokens were read in a further gather (as
    ``reference_decoded_cells`` reads them). Same returns as
    ``reference_analyze_boxes``, the root as an int32 array."""

    def fail(fault, at=None):
        return SchemeCheck(False, size, *describe(fault, at)), None

    d = len(dims)
    if d < 1 or any(n < 1 for n in dims):
        return fail("dims")
    total = prod(dims)
    if total > MAX_CELLS:
        return fail("cap")
    strides = [prod(dims[a + 1 :]) for a in range(d)]
    origin = sum(strides)  # flat index of a position is sum(p * st) - origin

    def inside(lo, hi):
        """Are both corners of the box lo..hi (lo <= hi) in the grid?"""
        return len(lo) == len(hi) == d and min(lo) >= 1 and all(map(le, hi, dims))

    tokens = {}
    for pos, tok in explicit.items():
        pos = tuple(pos)
        bad_token = not tok or str(tok).split() != [str(tok)]
        if bad_token or not inside(pos, pos):
            return fail("explicit", (pos, tok, bad_token, not inside(pos, pos)))
        tokens[sum(map(mul, pos, strides)) - origin] = str(tok)
    cells = list(tokens)
    step = np.full(total, _FREE, dtype=np.int32)  # source cell minus cell
    step[cells] = 0  # an explicit cell ends its chain at itself
    grid = step.reshape(dims)
    cuts = []  # the boxes written so far
    shifts = []  # and the flat shift of each

    def first_overlap():
        """The cell an in-order fill of ``cuts`` finds taken: in the first
        box that meets an earlier part, the first such cell in row-major
        order."""
        taken = np.zeros(dims, dtype=bool)
        taken.flat[cells] = True
        for cut in cuts:
            view = taken[cut]
            if view.any():
                at = np.unravel_index(int(view.argmax()), view.shape)
                return int(sum((c.start + a) * st for c, a, st in zip(cut, at, strides)))
            view[...] = True
        return None

    def bounds_fault(k, lo, hi):
        """Box k fails a bounds check: its fault, unless an earlier box
        overlaps."""
        cell = first_overlap()
        if cell is not None:
            return fail("overlap", cell)
        ext = tuple(map(sub, hi, lo))
        if min(ext, default=0) < 0:
            return fail("inverted", k)
        return fail("source" if inside(lo, hi) else "target", k)

    covered = len(cells)
    ones, threes = (1,) * d, (3,) * d
    for k, (lo, hi, src) in enumerate(boxes):
        ext = tuple(map(sub, hi, lo))
        if not (
            len(lo) == len(hi) == len(src) == d
            and min(ext) >= 0
            and min(lo) >= 1
            and min(src) >= 1
            and all(map(le, hi, dims))
            and all(map(le, map(add, src, ext), dims))
        ):
            return bounds_fault(k, lo, hi)
        cut = tuple(map(slice, map(sub, lo, ones), hi))
        view = grid[cut]
        shift = sum(map(mul, map(sub, src, lo), strides))
        # jump when some chain makes 4 hops in the box, i.e. |offset| <=
        # ext // 3 on every axis (the box then has 4 cells or more): shorter
        # ones cost more numpy calls than the rounds they save, and the size
        # test spares small boxes the per-axis one
        if (
            shift
            and view.size >= 4
            and all(map(le, map(abs, map(sub, src, lo)), map(floordiv, ext, threes)))
        ):
            _write_exits(view, tuple(map(sub, src, lo)), ext, shift)
        else:
            view.fill(shift)
        covered += view.size
        cuts.append(cut)
        shifts.append(shift)
    # the parts partition the grid iff their volumes add up and none is free
    if covered != total or step.min() == _FREE:
        cell = first_overlap()
        if cell is not None:
            return fail("overlap", cell)
        free = np.flatnonzero(step == _FREE)
        return fail("holes", (len(free), int(free[0])))
    # after t rounds root[c] is 2^t hops down c's chain, or its end; the
    # cell indices come from the buffer the first round overwrites
    root, spare = step, np.arange(total, dtype=np.int32)
    root += spare
    ends = np.zeros(total, dtype=bool)
    ends[cells] = True
    at_root = np.empty_like(ends)
    for _ in range(total.bit_length() + 1):
        root, spare = _gather(root, root, spare), root
        if _gather(ends, root, at_root).all():
            return SchemeCheck(True, size), (root, tokens)
    # rebuild the one-shift steps and walk the chain of the first cell that misses
    cur, seen = int(at_root.argmin()), set()
    step = np.zeros(total, dtype=np.int32)
    grid = step.reshape(dims)
    for cut, shift in zip(cuts, shifts):
        grid[cut] = shift
    while cur not in seen:
        seen.add(cur)
        cur += int(step[cur])
    return fail("cycle", cur)


def reference_b_exact(
    m: Matrix2D,
    cell_limit: int = 9,
    work_limit: int = 5_000_000,
    budget: WorkBudget | None = None,
) -> MacroScheme2D:
    """macroscheme.b_exact as it was: parts as tagged ``("e", ...)``/
    ``("p", ...)`` tuples, the best scheme in a dict, and every cell's
    copy chain walked again with ``walk_chains`` after each source choice.
    b_exact must match it in repr or exception text, steps and budget.

    Branch and bound over rectangle partitions: the first uncovered cell in
    row-major order is always the top-left of its part; 1x1 parts are made
    explicit (never worse than a 1x1 copy), larger parts require the same
    content somewhere else in the matrix and get their sources assigned by a
    nested search with incremental cycle checks.
    """
    total = m.area
    if total > cell_limit:
        raise TooLarge(
            f"b_exact is exponential; {m.rows}x{m.cols} has {total} cells "
            f"> cell_limit={cell_limit}"
        )
    budget = ensure_budget(budget)
    rows, cols = m.rows, m.cols
    windows = WindowIds(m)
    occ_memo: dict[tuple[int, int, int, int], list[Position]] = {}

    def occurrences(i: int, j: int, h: int, w: int) -> list[Position]:
        key = (i, j, h, w)
        if key in occ_memo:
            return occ_memo[key]
        labels = windows.labels(h, w)
        want = labels[i][j]
        out = [
            (a, b)
            for a, row in enumerate(labels)
            for b, label in enumerate(row)
            if label == want and (a, b) != (i, j)
        ]
        occ_memo[key] = out
        return out

    max_copy_area = 1
    for h in range(1, rows + 1):
        for w in range(1, cols + 1):
            if h * w > 1 and windows.count(h, w) < (rows - h + 1) * (cols - w + 1):
                max_copy_area = max(max_copy_area, h * w)

    full_mask = (1 << total) - 1

    # parts: ("e", i, j) or ("p", i, j, h, w); all coordinates 0-based here
    all_explicit = [("e", i, j) for i in range(rows) for j in range(cols)]
    best: dict = {"size": total, "parts": all_explicit, "assignment": []}
    work = [0]

    def tick() -> None:
        work[0] += 1
        budget.charge(1, "scheme search")
        if work[0] > work_limit:
            raise ShapeTooLarge(
                f"scheme search exceeded work_limit={work_limit}"
            )

    def assign_sources(parts: list) -> list | None:
        copied = [p for p in parts if p[0] == "p"]
        if not copied:
            return []
        if not any(p[0] == "e" for p in parts):
            return None  # every chain would be infinite
        source_of = [-2] * total  # -2 unknown, -1 explicit
        for kind, i, j, *rest in parts:
            if kind == "e":
                source_of[i * cols + j] = -1

        chosen: list[Position] = []

        def fill(p, src: Position | None) -> None:
            _, i, j, h, w = p
            for a in range(h):
                for b in range(w):
                    idx = (i + a) * cols + (j + b)
                    source_of[idx] = (
                        -2 if src is None else (src[0] + a) * cols + (src[1] + b)
                    )

        def rec(pos: int) -> bool:
            if pos == len(copied):
                return True
            tick()
            p = copied[pos]
            for src in occurrences(p[1], p[2], p[3], p[4]):
                fill(p, src)
                if walk_chains(source_of)[0] is not None:
                    chosen.append(src)
                    if rec(pos + 1):
                        return True
                    chosen.pop()
            fill(p, None)
            return False

        if not rec(0):
            return None
        return list(zip(copied, chosen))

    def dfs(covered: int, parts: list) -> None:
        tick()
        if covered == full_mask:
            assignment = assign_sources(parts)
            if assignment is not None:
                best["size"] = len(parts)
                best["parts"] = list(parts)
                best["assignment"] = assignment
            return
        free = total - bin(covered).count("1")
        if len(parts) + -(-free // max_copy_area) >= best["size"]:
            return
        idx = ((~covered) & (covered + 1)).bit_length() - 1  # lowest free cell
        i, j = divmod(idx, cols)
        options = []
        for h in range(1, rows - i + 1):
            for w in range(1, cols - j + 1):
                mask = _rect_mask(h, w, cols) << idx
                if mask & covered:
                    continue
                if h * w > 1 and not occurrences(i, j, h, w):
                    continue
                options.append((h * w, h, w, mask))
        options.sort(key=lambda o: (-o[0], o[1], o[2]))
        for area, h, w, mask in options:
            if area == 1:
                parts.append(("e", i, j))
            else:
                parts.append(("p", i, j, h, w))
            dfs(covered | mask, parts)
            parts.pop()

    dfs(0, [])
    parts = best["parts"]
    sources = {tuple(p): src for p, src in best["assignment"]}
    explicit: dict[Position, str] = {}
    phrases: list[Phrase] = []
    for p in parts:
        if p[0] == "e":
            _, i, j = p
            explicit[(i + 1, j + 1)] = m.at(i + 1, j + 1)
        else:
            _, i, j, h, w = p
            si, sj = sources[tuple(p)]
            phrases.append(
                Phrase(i + 1, j + 1, i + h, j + w, si + 1, sj + 1)
            )
    return MacroScheme2D(rows, cols, explicit, tuple(phrases))


def dict_encode_tokens(tokens):
    """core2d.encode_tokens as it was: every token str()-ed, then one dict
    lookup a token."""
    toks = list(map(str, tokens))
    distinct = dict.fromkeys(toks)
    for tok in distinct:
        if tok.split() != [tok]:
            raise ParseError(f"invalid token {tok!r}")
    alphabet = tuple(sorted(distinct))
    index = {tok: i for i, tok in enumerate(alphabet)}
    return tuple(map(index.__getitem__, toks)), alphabet


@dataclass(frozen=True)
class TupleMatrix2D:
    """``core2d.Matrix2D`` as it was: a frozen dataclass whose ``cells`` is
    a tuple of ids built with every matrix. Only its class name differs in
    its repr; its hash, equality and pickling are the dataclass's."""

    rows: int
    cols: int
    cells: tuple[int, ...]
    alphabet: tuple[str, ...]

    @classmethod
    def from_tokens(cls, grid):
        return cls(len(grid), len(grid[0]), *dict_encode_tokens(t for row in grid for t in row))


@dataclass(frozen=True)
class TupleNdString:
    """``multidim.NdString`` as it was, like ``TupleMatrix2D``."""

    dims: tuple[int, ...]
    cells: tuple[int, ...]
    alphabet: tuple[str, ...]

    @classmethod
    def from_tokens(cls, dims, tokens):
        return cls(tuple(dims), *dict_encode_tokens(tokens))


def tokens_submatrix(m, i1, j1, i2, j2):
    """``core2d.submatrix`` as it was: the whole token grid is built, the
    factor cut out of it and built again from its tokens."""
    grid = m.tokens()
    return Matrix2D.from_tokens([row[j1 - 1 : j2] for row in grid[i1 - 1 : i2]])


def tokens_concat_h(a, b):
    """``core2d.concat_h`` as it was: both token grids built and their rows
    joined, then encoded again (the row counts are assumed equal)."""
    return Matrix2D.from_tokens([ra + rb for ra, rb in zip(a.tokens(), b.tokens())])


def tokens_concat_v(a, b):
    """``core2d.concat_v`` as it was: both token grids built, one stacked
    on the other, then encoded again (the column counts are assumed equal)."""
    return Matrix2D.from_tokens(a.tokens() + b.tokens())


def stack_scan_coords(n, kind):
    """``linearize.scan_coords`` as it was: the quadrants of a power-of-two
    side n resolved one cell at a time on an explicit stack."""
    out = []
    stack = [(1, 1, n, kind)]
    while stack:
        top, left, side, k = stack.pop()
        if side == 1:
            out.append((top, left))
            continue
        half = side // 2
        for dy, dx, sub in reversed(_ORDERS[k]):
            stack.append((top + dy * half, left + dx * half, half, sub))
    return tuple(out)


def tuple_scan(m, kind):
    """``linearize.scan`` as it was: the cells tuple read one visited cell
    at a time along ``stack_scan_coords``."""
    cells, n = m.cells, m.cols
    flat = tuple(cells[(y - 1) * n + x - 1] for y, x in stack_scan_coords(n, kind))
    return Matrix2D(1, m.area, flat, m.alphabet)


def reference_decoded_cells(root, tokens):
    """Cell ids and alphabet of a decoded scheme, one dict lookup a cell."""
    ids, alphabet = dict_encode_tokens(tokens.values())
    id_at = dict(zip(tokens, ids))
    return tuple(map(id_at.__getitem__, root)), alphabet


def reference_build_index(g, budget=None) -> AccessIndex:
    """The heavy-path index built by switching over the rule classes. Its
    ``parts`` table is left empty: ``reference_access`` reads the rules."""
    info = validate_grammar(g)
    budget = ensure_budget(budget)
    dims = info.dims
    area = lambda v: dims[v][0] * dims[v][1]
    heavy = {}
    for name, rule in g.rules.items():
        if isinstance(rule, Terminal):
            heavy[name] = None
        elif isinstance(rule, (RunH, RunV)):
            heavy[name] = rule.child
        else:
            a, b = (rule.left, rule.right) if isinstance(rule, Horiz) else (rule.top, rule.bottom)
            heavy[name] = a if area(a) >= area(b) else b
    paths = {}
    for start in g.rules:
        names, u, d, l, r = [start], [0], [0], [0], [0]
        cur = start
        while heavy[cur] is not None:
            budget.charge(1, "access index")
            rule = g.rules[cur]
            nxt = heavy[cur]
            du = dd = dl = dr = 0
            if isinstance(rule, Horiz):
                if nxt == rule.left:
                    dr = dims[rule.right][1]
                else:
                    dl = dims[rule.left][1]
            elif isinstance(rule, Vert):
                if nxt == rule.top:
                    dd = dims[rule.bottom][0]
                else:
                    du = dims[rule.top][0]
            elif isinstance(rule, RunH):
                dr = (rule.count - 1) * dims[rule.child][1]
            elif isinstance(rule, RunV):
                dd = (rule.count - 1) * dims[rule.child][0]
            names.append(nxt)
            u.append(u[-1] + du)
            d.append(d[-1] + dd)
            l.append(l[-1] + dl)
            r.append(r[-1] + dr)
            cur = nxt
        paths[start] = HeavyPath(
            tuple(names), tuple(u), tuple(d), tuple(l), tuple(r),
            g.rules[cur].token, u[-1] + 1, l[-1] + 1,
        )
    children = {name: [] for name in g.rules}
    roots = []
    for name in sorted(g.rules):
        if heavy[name] is None:
            roots.append(name)
        else:
            children[heavy[name]].append(name)
    forest = SuffixForest(
        dict(heavy), {k: tuple(v) for k, v in children.items()}, tuple(roots)
    )
    return AccessIndex(g, info, heavy, paths, forest, {})


def reference_access(index: AccessIndex, y: int, x: int) -> tuple[str, int]:
    """Symbol and hop count at (y, x), hopping by the rule classes."""
    if not (1 <= y <= index.rows and 1 <= x <= index.cols):
        raise OutOfBounds(f"({y},{x}) outside {index.rows}x{index.cols} expansion")
    g, dims = index.grammar, index.info.dims
    var, hops = g.axiom, 0
    while True:
        path = index.paths[var]
        m1, n1 = dims[var]
        k = len(path.names)
        if y == path.y0:
            i = k
        elif y > path.y0:
            i = bisect_right(path.d, m1 - y)
        else:
            i = bisect_right(path.u, y - 1)
        if x == path.x0:
            j = k
        elif x > path.x0:
            j = bisect_right(path.r, n1 - x)
        else:
            j = bisect_right(path.l, x - 1)
        step = min(i, j)
        if step == k:
            return path.symbol, hops
        rule = g.rules[path.names[step - 1]]
        yl, xl = y - path.u[step - 1], x - path.l[step - 1]
        if isinstance(rule, Horiz):
            nb = dims[rule.left][1]
            var, y, x = (rule.left, yl, xl) if xl <= nb else (rule.right, yl, xl - nb)
        elif isinstance(rule, Vert):
            mb = dims[rule.top][0]
            var, y, x = (rule.top, yl, xl) if yl <= mb else (rule.bottom, yl - mb, xl)
        elif isinstance(rule, RunH):
            nb = dims[rule.child][1]
            var, y, x = rule.child, yl, 1 + (xl - 1) % nb
        else:
            mb = dims[rule.child][0]
            var, y, x = rule.child, 1 + (yl - 1) % mb, xl
        hops += 1


def reference_scan(index: AccessIndex, budget, reference, access=access) -> ScanReport:
    """The former cell-by-cell scan: charge each row, then ``access`` every
    cell of it in row-major order, counting the cells per hop count; stop at
    the first cell whose symbol differs from the Matrix2D ``reference``."""
    hist: Counter[int] = Counter()
    for y in range(1, index.rows + 1):
        budget.charge(index.cols, "access scan")
        for x in range(1, index.cols + 1):
            symbol, hops = access(index, y, x)
            hist[hops] += 1
            if reference is not None and symbol != reference.at(y, x):
                return ScanReport(False, max(hist), hop_bound(index), (y, x), hist)
    return ScanReport(True, max(hist), hop_bound(index), None, hist)


def reference_full_scan(index: AccessIndex, budget=None, access=access) -> ScanReport:
    """The former full_scan: expand, then scan every cell with ``access``."""
    budget = ensure_budget(budget)
    return reference_scan(index, budget, expand(index.grammar, budget), access)


class _ReferenceWorkLimitHit(Exception):
    """Unwinds reference_g_exact when work_limit is exhausted."""


@dataclass
class _ReferenceSearchState:
    allow_runs: bool
    work_limit: int
    content_limit: int
    budget: WorkBudget
    option_cache: dict = field(default_factory=dict)
    work: int = 0

    def options(self, c):
        cached = self.option_cache.get(c)
        if cached is None:
            cached = _options(c, self.allow_runs)
            self.option_cache[c] = cached
            if len(self.option_cache) > self.content_limit:
                raise TooLarge(
                    f"grammar search visited more than {self.content_limit} "
                    "distinct factor contents"
                )
        return cached

    def tick(self) -> None:
        self.work += 1
        self.budget.charge(1, "grammar search")
        if self.work > self.work_limit:
            raise _ReferenceWorkLimitHit


def _reference_close_and_bound(state, members, closed):
    """Close every content that already splits within the set; return the
    still-open contents, an admissible lower bound on the extra cost to close
    them, and the list of contents newly marked closed (for undo)."""
    newly = []
    changed = True
    while changed:
        changed = False
        for c in list(members):
            if _cost(c) == 1 or c in closed:
                continue
            for _, _, parts in state.options(c):
                if all(p in members for p in parts):
                    closed.add(c)
                    newly.append(c)
                    changed = True
                    break
    opens = [c for c in members if _cost(c) == 2 and c not in closed]
    bound = 0
    for c in opens:
        best = None
        for _, _, parts in state.options(c):
            added = sum(_cost(p) for p in set(parts) if p not in members)
            if best is None or added < best:
                best = added
        if best is None:  # non-unit content with no option cannot happen
            best = 0
        bound = max(bound, best)
    return opens, bound, newly


def _reference_search(state, members, closed, cost, best) -> None:
    state.tick()
    opens, bound, newly = _reference_close_and_bound(state, members, closed)
    if not opens:
        if cost < best[0]:
            best[0] = cost
            best[1] = set(members)
        for c in newly:
            closed.discard(c)
        return
    if cost + max(bound, 1) >= best[0]:
        for c in newly:
            closed.discard(c)
        return
    pivot = max(opens, key=_content_key)
    branches = []
    seen_parts = set()
    for rank, (_, _, parts) in enumerate(state.options(pivot)):
        new = tuple(sorted({p for p in parts if p not in members}, key=_content_key))
        if not new or new in seen_parts:
            if not new:
                raise AssertionError("open content has a zero-cost option")
            continue
        seen_parts.add(new)
        branches.append((sum(_cost(p) for p in new), rank, new))
    branches.sort(key=lambda b: (b[0], b[1]))
    for added_cost, _, new in branches:
        if cost + added_cost >= best[0]:
            continue
        for p in new:
            members.add(p)
        _reference_search(state, members, closed, cost + added_cost, best)
        for p in new:
            members.discard(p)
    for c in newly:
        closed.discard(c)


def _reference_greedy_upper(state, root):
    members = {root}
    cost = _cost(root)
    while True:
        opens = [
            c
            for c in members
            if _cost(c) == 2
            and not any(all(p in members for p in parts) for _, _, parts in state.options(c))
        ]
        if not opens:
            return cost, members
        c = max(opens, key=_content_key)
        best_new = None
        best_added = None
        for _, _, parts in state.options(c):
            new = tuple(sorted({p for p in parts if p not in members}, key=_content_key))
            added = sum(_cost(p) for p in new)
            if best_added is None or added < best_added:
                best_added = added
                best_new = new
        members.update(best_new)
        cost += best_added


def reference_g_exact(m, allow_runs=False, work_limit=2_000_000, content_limit=5000,
                      budget=None) -> GrammarSearchResult:
    """The former g_exact: a recursive branch and bound over sets of token
    grids that recomputes the closure of the whole member set, and the bound,
    at every node."""
    state = _ReferenceSearchState(allow_runs, work_limit, content_limit, ensure_budget(budget))
    root = m.tokens()
    if _cost(root) == 1:
        return GrammarSearchResult(Grammar2D("X1", {"X1": Terminal(root[0][0])}), True, 0)
    best = list(_reference_greedy_upper(state, root))
    optimal = True
    try:
        _reference_search(state, {root}, set(), _cost(root), best)
    except _ReferenceWorkLimitHit:
        optimal = False
    return GrammarSearchResult(
        recursive_grammar_from_contents(root, best[1], allow_runs), optimal, state.work
    )


# ---------------------------------------------------------------------------
# the former g_exact: contents as token grids, sliced and hashed per fetch
# ---------------------------------------------------------------------------


def _content_key(c: TokenGrid) -> tuple:
    return (len(c), len(c[0]), c)


def _h_split(c: TokenGrid, w: int) -> tuple[TokenGrid, TokenGrid]:
    return tuple(r[:w] for r in c), tuple(r[w:] for r in c)


def _v_split(c: TokenGrid, h: int) -> tuple[TokenGrid, TokenGrid]:
    return c[:h], c[h:]


def _options(
    c: TokenGrid, allow_runs: bool
) -> list[tuple[str, int, tuple[TokenGrid, ...]]]:
    rows, cols = len(c), len(c[0])
    opts: list[tuple[str, int, tuple[TokenGrid, ...]]] = []
    for w in range(1, cols):
        opts.append(("h", w, _h_split(c, w)))
    for h in range(1, rows):
        opts.append(("v", h, _v_split(c, h)))
    if allow_runs:
        for ell in range(2, cols + 1):
            if cols % ell:
                continue
            w = cols // ell
            base = tuple(r[:w] for r in c)
            if all(
                tuple(r[i * w : (i + 1) * w] for r in c) == base
                for i in range(1, ell)
            ):
                opts.append(("rh", ell, (base,)))
        for ell in range(2, rows + 1):
            if rows % ell:
                continue
            h = rows // ell
            base = c[:h]
            if all(c[i * h : (i + 1) * h] == base for i in range(1, ell)):
                opts.append(("rv", ell, (base,)))
    return opts


def _cost(c: TokenGrid) -> int:
    return 1 if len(c) == 1 and len(c[0]) == 1 else 2


class _SlicingContentTable:
    """Every content one g_exact call meets, interned once as an int id, and
    a member set over those ids that keeps its closure counts incrementally.

    Per id: the content, its cost and its ``_content_key``. Once fetched, its
    options are the slots ``span[i]`` of ``slots``: those of ``_options`` in
    order, each as a tuple of distinct part ids, without an option whose
    part set an earlier one already has. Each fetch counts toward
    content_limit. Per slot, ``missing`` holds the summed cost of its parts
    that are not members. Adding or removing a member updates the slots in
    its ``watch`` list, so a content is closed iff one of its slots reads 0,
    and no node rescans the member set."""

    def __init__(self, allow_runs: bool, content_limit: int):
        self.allow_runs = allow_runs
        self.content_limit = content_limit
        self.ids: dict[TokenGrid, int] = {}
        self.contents: list[TokenGrid] = []
        self.cost: list[int] = []
        self.key: list[tuple] = []
        self.span: list[tuple[int, int] | None] = []
        self.watch: list[list[int]] = []
        self.slots: list[tuple[int, ...]] = []
        self.missing: list[int] = []
        self.members: set[int] = set()
        self.fetched = 0

    def intern(self, c: TokenGrid) -> int:
        i = self.ids.get(c)
        if i is None:
            i = self.ids[c] = len(self.contents)
            self.contents.append(c)
            self.cost.append(_cost(c))
            self.key.append(_content_key(c))
            self.span.append(None)
            self.watch.append([])
        return i

    def fetch(self, i: int) -> None:
        cost, members, slots = self.cost, self.members, self.slots
        lo = len(slots)
        seen: set[frozenset[int]] = set()
        for _, _, parts in _options(self.contents[i], self.allow_runs):
            ids = tuple(dict.fromkeys(map(self.intern, parts)))
            part_set = frozenset(ids)
            if part_set in seen:
                continue
            seen.add(part_set)
            for p in ids:
                self.watch[p].append(len(slots))
            slots.append(ids)
            self.missing.append(sum([cost[p] for p in ids if p not in members]))
        self.span[i] = (lo, len(slots))
        self.fetched += 1
        if self.fetched > self.content_limit:
            raise TooLarge(
                f"grammar search visited more than {self.content_limit} "
                "distinct factor contents"
            )

    def add(self, new: tuple[int, ...]) -> None:
        missing = self.missing
        for p in new:
            step = self.cost[p]
            for s in self.watch[p]:
                missing[s] -= step
            self.members.add(p)

    def remove(self, new: tuple[int, ...]) -> None:
        missing = self.missing
        for p in new:
            self.members.discard(p)
            step = self.cost[p]
            for s in self.watch[p]:
                missing[s] += step

    def enter(
        self, new: tuple[int, ...], opens: list[int]
    ) -> tuple[list[int], int]:
        """Fetch the options of the members of cost 2 in ``new``, which were
        just added. Return the members among them and ``opens`` (the
        parent's open members: closed ones stay closed as the set grows)
        that are still open, and the largest of their smallest missing
        costs, an admissible bound on the cost still to add."""
        span, missing = self.span, self.missing
        entering = [p for p in new if self.cost[p] == 2]
        for p in entering:
            if span[p] is None:
                self.fetch(p)
        still: list[int] = []
        bound = 0
        for c in opens + entering:
            lo, hi = span[c]
            least = min(missing[lo:hi])
            if least:
                still.append(c)
                if least > bound:
                    bound = least
        return still, bound

    def branches(self, opens: list[int]) -> list[tuple[int, int, tuple[int, ...]]]:
        """The ways to complete the pivot, the open member of largest key:
        (added cost, option slot, new parts) by added cost then option
        order, one per distinct set of new parts."""
        members = self.members
        lo, hi = self.span[max(opens, key=self.key.__getitem__)]
        seen: set[frozenset[int]] = set()
        out = []
        for s in range(lo, hi):
            new = tuple(p for p in self.slots[s] if p not in members)
            part_set = frozenset(new)
            if part_set not in seen:
                seen.add(part_set)
                out.append((self.missing[s], s, new))
        out.sort()
        return out


def _slicing_greedy_upper(table: _SlicingContentTable, root: int) -> tuple[int, set[int]]:
    """Close {root} by always taking the first branch of the pivot; the
    table is left with no members."""
    cost, new, opens = table.cost[root], (root,), []
    while True:
        table.add(new)
        opens, _ = table.enter(new, opens)
        if not opens:
            members = set(table.members)
            table.remove(tuple(members))
            return cost, members
        added, _, new = table.branches(opens)[0]
        cost += added


def _slicing_branch_and_bound(
    table: _SlicingContentTable,
    root: int,
    upper: tuple[int, set[int]],
    work_limit: int,
    budget: WorkBudget,
) -> tuple[set[int], int, bool]:
    """Depth-first search for a cheapest closed member set containing root,
    starting from the bound ``upper`` = (cost, set). Every node ticks the
    budget first. It runs on an explicit stack of frames (cost, open members,
    remaining branches, ids the node added), so depth does not matter.
    Returns the best set, the nodes ticked, and whether the search ended
    before work_limit."""
    best_cost, best_set = upper
    cost, new, opens = table.cost[root], (root,), []
    table.add(new)
    stack: list[tuple] = []
    work = 0
    while True:
        work += 1
        budget.charge(1, "grammar search")
        if work > work_limit:
            return best_set, work, False
        opens, bound = table.enter(new, opens)
        if opens and cost + max(bound, 1) < best_cost:
            stack.append((cost, opens, iter(table.branches(opens)), new))
        else:
            if not opens and cost < best_cost:
                best_cost, best_set = cost, set(table.members)
            table.remove(new)
        while stack:
            cost, opens, branches, added = stack[-1]
            for step, _, new in branches:
                if cost + step < best_cost:
                    break
            else:
                stack.pop()
                table.remove(added)
                continue
            cost += step
            table.add(new)
            break
        else:
            return best_set, work, True


def slicing_g_exact(m, allow_runs=False, work_limit=2_000_000, content_limit=5000,
                    budget=None) -> GrammarSearchResult:
    """The former g_exact: the same search over content ids, with contents
    interned as token grids whose splits are sliced out of the rows and
    hashed at every fetch, an eager bound and a sorted branch list."""
    budget = ensure_budget(budget)
    root = m.tokens()
    if _cost(root) == 1:
        return GrammarSearchResult(Grammar2D("X1", {"X1": Terminal(root[0][0])}), True, 0)
    table = _SlicingContentTable(allow_runs, content_limit)
    root_id = table.intern(root)
    upper = _slicing_greedy_upper(table, root_id)
    best, work, optimal = _slicing_branch_and_bound(table, root_id, upper, work_limit, budget)
    members = {table.contents[i] for i in best}
    return GrammarSearchResult(
        recursive_grammar_from_contents(root, members, allow_runs), optimal, work
    )


def chain_ranking(grid, sides, budget):
    """The label grid and label count of each level side, in ascending
    order, from one ``rank_windows`` chain walk over the square shapes."""
    for _, labels, count in rank_windows(grid, [(s, s) for s in sides], budget, RANKING_2D):
        yield labels, count


def doubling_charges(rows: int, cols: int, sides) -> list[tuple[int, str]]:
    """The (steps, label) charges of ranking the level sides by doubling, in
    order: side a*s from side s by a - 1 passes along the rows, each charging
    its windows s tall and j*s + s wide, then a - 1 along the columns, each
    charging its windows j*s + s tall and a*s wide (j from 1 to a - 1)."""
    charges = []
    for s, t in zip(sides, sides[1:]):
        charges += [((rows - s + 1) * (cols - (j + 1) * s + 1), "row ranking") for j in range(1, t // s)]
        charges += [((rows - (j + 1) * s + 1) * (cols - t + 1), "column ranking") for j in range(1, t // s)]
    return charges


def doubling_ledger_ranking(grid, sides, budget):
    """``chain_ranking`` that charges the ledger of ranking by doubling
    (``doubling_charges``) instead of its own."""
    for steps, what in doubling_charges(*grid.shape, sides):
        budget.charge(steps, what)
    yield from chain_ranking(grid, sides, None)


def reference_build_blocktree(m, arity=2, pad_to=None, budget=None, ranking=chain_ranking) -> BlockTree:
    """The block tree built top down by a recursive closure that charges one
    "block tree" step per node, after ``ranking`` (grid, sides, budget) has
    given the labels of every level side that fits, ascending, and the first
    window of each label was found with ``np.unique``."""
    budget = ensure_budget(budget)
    side = 1
    while side < max(m.rows, m.cols):
        side *= arity
    if pad_to is not None:
        side = pad_to
    sentinel = _fresh_sentinel(m.alphabet)
    sides, s = [], 1
    while s <= min(m.rows, m.cols):
        sides.append(s)
        s *= arity
    earliest = {}
    for s, (labels, count) in zip(sides, ranking(m._grid, sides, budget)):
        _, first_idx = np.unique(labels.ravel(), return_index=True)
        width = labels.shape[1]
        earliest[s] = (labels, [(int(i) // width + 1, int(i) % width + 1) for i in first_idx])

    def make(level, top, left, s):
        budget.charge(1, "block tree")
        inside = top + s - 1 <= m.rows and left + s - 1 <= m.cols
        if s == 1:
            token = m.at(top, left) if inside else sentinel
            return BlockNode(level, top, left, 1, "symbol", token=token)
        if inside:
            labels, firsts = earliest[s]
            src = firsts[int(labels[top - 1, left - 1])]
            if src < (top, left):
                return BlockNode(level, top, left, s, "pruned", source=src)
        child = s // arity
        children = tuple(
            make(level + 1, top + di * child, left + dj * child, child)
            for di in range(arity)
            for dj in range(arity)
        )
        return BlockNode(level, top, left, s, "internal", children=children)

    root = make(0, 1, 1, side)
    counts = Counter(node.level for node in iter_nodes(root))
    return BlockTree(m.rows, m.cols, arity, side, sentinel, root, tuple(counts[i] for i in range(len(counts))))
