"""2D strings (matrices over a finite alphabet) and factor enumeration.

Conventions used across the whole package:

* indexing is 1-based and inclusive, so ``M[i1..i2][j1..j2]`` with
  ``1 <= i1 <= i2 <= rows`` is the rectangle whose top-left cell is (i1, j1);
* a *factor* of shape (k1, k2) is any contiguous k1 x k2 submatrix;
* occurrences are identified by the 1-based position of their top-left cell,
  and *RMO* (row-major order) of those positions is the canonical tie-break;
* factor equality is token equality: two factors are equal iff their token
  grids are equal, regardless of which matrices they were cut from.

Distinct-factor counting is exact: windows of a shape are dense-ranked by
iterated pair ranking, extending the shape one column / one row at a time.
``rank_windows`` is the one loop that does this, for any number of axes:
delta, the attractor layer, factor counts and listings, block trees and the
exact g and b solvers (through ``WindowIds``) all read its walk. Each pass
ranks the (window id, next cell id) pairs in linear time by marking them in
a bool array over the pair-id range, or with np.unique when that range is
sparse. No hashing is involved, so there are no collisions to resolve and
results are deterministic. ``densest_shape`` (delta for any number of axes)
walks the same passes over every shape without listing them, and ends a
chain once the answer is settled, by saturation, by a bound stop or by
determinism; all three prunings are exact.

Determinism is the counting step behind the Morse-Hedlund theorem (Morse and
Hedlund, "Symbolic dynamics", 1938) and behind delta <= gamma (Kociumaka,
Navarro and Prezza, LATIN 2020). Say the pass from shape t to t + e_a along
axis a pairs every window of t that has a next slab with one next slab only.
Then each window of t + j * e_a (j >= 1) is fixed by the t-window at its
corner, slab by slab, and each window of a shape s reached from it through
the axes before a is fixed by the window of its t-part t' (s with t's extent
on axis a) at the same corner. So count(s) <= count(t') while vol(s) >
vol(t'), s is strictly below t', which was ranked or pruned before, and the
chain ends there without a tie moving. The pass holds the sorted distinct
pair ids, so the test is that no two of them share their left id; it is only
made when count(t + e_a) <= count(t), which it implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .budget import WorkBudget, ensure_budget
from .errors import (
    BadParam,
    ColMismatch,
    OutOfBounds,
    ParseError,
    RowMismatch,
    TooLarge,
)

Position = tuple[int, int]
TokenGrid = tuple[tuple[str, ...], ...]

#: hard cap on cells, matching the documented family caps (~16M)
MAX_CELLS = 1 << 24

#: budget labels of the 2D ranking passes along axis 1 (rows) and axis 2
RANKING_2D = ("column ranking", "row ranking")


@dataclass(frozen=True)
class FactorShape:
    """Shape (k1, k2) of a rectangular factor: k1 rows by k2 columns."""

    k1: int
    k2: int

    @property
    def area(self) -> int:
        return self.k1 * self.k2


def encode_tokens(
    tokens: Iterable[object],
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Dense ids of the str()-ed tokens into their sorted alphabet.

    Each distinct token is validated once, in order of first occurrence, so
    the first invalid token of the sequence is the one reported.
    """
    toks = list(map(str, tokens))
    distinct = dict.fromkeys(toks)
    for tok in distinct:
        if tok.split() != [tok]:
            raise ParseError(f"invalid token {tok!r}")
    alphabet = tuple(sorted(distinct))
    index = {tok: i for i, tok in enumerate(alphabet)}
    return tuple(map(index.__getitem__, toks)), alphabet


@dataclass(frozen=True)
class Matrix2D:
    """An immutable m x n string over an ordered token alphabet.

    ``cells`` holds dense integer ids (row-major) into ``alphabet``, which is
    always the sorted tuple of the distinct tokens actually present, so two
    matrices are equal exactly when their token grids are equal.
    """

    rows: int
    cols: int
    cells: tuple[int, ...]
    alphabet: tuple[str, ...]

    @classmethod
    def from_tokens(cls, grid: Sequence[Sequence[object]]) -> "Matrix2D":
        """Build from rows of tokens (non-str tokens are str()-ed)."""
        if not grid or not grid[0]:
            raise BadParam("a 2D string must have at least one cell")
        rows = len(grid)
        cols = len(grid[0])
        if rows * cols > MAX_CELLS:
            raise TooLarge(f"{rows}x{cols} exceeds the {MAX_CELLS}-cell cap")
        flat: list[object] = []
        for r, row in enumerate(grid, start=1):
            if len(row) != cols:
                encode_tokens(flat)  # a bad token in an earlier row wins
                raise RowMismatch(
                    f"row {r} has {len(row)} tokens, expected {cols}"
                )
            flat.extend(row)
        return cls(rows, cols, *encode_tokens(flat))

    @cached_property
    def _grid(self) -> np.ndarray:
        arr = np.array(self.cells, dtype=np.int64)
        arr = arr.reshape(self.rows, self.cols)
        arr.setflags(write=False)
        return arr

    @property
    def area(self) -> int:
        return self.rows * self.cols

    def id_at(self, i: int, j: int) -> int:
        self._check_pos(i, j)
        return self.cells[(i - 1) * self.cols + (j - 1)]

    def at(self, i: int, j: int) -> str:
        """Token at 1-based position (i, j)."""
        return self.alphabet[self.id_at(i, j)]

    def tokens(self) -> TokenGrid:
        a = self.alphabet
        c = self.cells
        w = self.cols
        return tuple(
            tuple(a[c[r * w + j]] for j in range(w)) for r in range(self.rows)
        )

    def row_tokens(self, i: int) -> tuple[str, ...]:
        self._check_pos(i, 1)
        a, w = self.alphabet, self.cols
        return tuple(a[c] for c in self.cells[(i - 1) * w : i * w])

    def _check_pos(self, i: int, j: int) -> None:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise OutOfBounds(
                f"position ({i},{j}) outside {self.rows}x{self.cols}"
            )

    def __str__(self) -> str:
        return "\n".join(" ".join(row) for row in self.tokens())


def concat_h(a: Matrix2D, b: Matrix2D) -> Matrix2D:
    """Horizontal concatenation: glue b to the right of a (row counts match)."""
    if a.rows != b.rows:
        raise RowMismatch(
            f"horizontal concatenation needs equal row counts, "
            f"got {a.rows} and {b.rows}"
        )
    grid = [ra + rb for ra, rb in zip(a.tokens(), b.tokens())]
    return Matrix2D.from_tokens(grid)


def concat_v(a: Matrix2D, b: Matrix2D) -> Matrix2D:
    """Vertical concatenation: glue b below a (column counts match)."""
    if a.cols != b.cols:
        raise ColMismatch(
            f"vertical concatenation needs equal column counts, "
            f"got {a.cols} and {b.cols}"
        )
    return Matrix2D.from_tokens(a.tokens() + b.tokens())


def submatrix(m: Matrix2D, i1: int, j1: int, i2: int, j2: int) -> Matrix2D:
    """The factor M[i1..i2][j1..j2] (1-based, inclusive)."""
    if not (1 <= i1 <= i2 <= m.rows and 1 <= j1 <= j2 <= m.cols):
        raise OutOfBounds(
            f"rectangle ({i1},{j1})..({i2},{j2}) outside {m.rows}x{m.cols}"
        )
    grid = m.tokens()
    return Matrix2D.from_tokens(
        [row[j1 - 1 : j2] for row in grid[i1 - 1 : i2]]
    )


# ---------------------------------------------------------------------------
# exact distinct-window ranking
# ---------------------------------------------------------------------------


#: the counting rank marks every possible pair id in a bool array; it beats
#: np.unique's sort while that range is at most this many times the number
#: of pairs (timed on 64 to 65,536 random pairs: 1.5-3.9x faster at 2-8
#: times, 0.6-0.9x at 12-24 times, except below about a thousand pairs)
_COUNTING_RANGE = 8


def _pair_rank(
    a: np.ndarray, a_range: int, b: np.ndarray, b_range: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense int64 ranks of the element-wise pairs (a, b), ids in value
    order, and the sorted distinct pair ids a * b_range + b (one per rank);
    ``a`` holds ids below ``a_range`` and ``b`` ids below ``b_range``."""
    combo = np.multiply(a, b_range, dtype=np.int64)
    combo += b
    span = a_range * b_range
    if span > _COUNTING_RANGE * combo.size:
        values, labels = np.unique(combo, return_inverse=True)
        return labels.reshape(a.shape).astype(np.int64, copy=False), values
    seen = np.zeros(span, dtype=bool)
    seen[combo] = True
    values = seen.nonzero()[0]
    # int32 halves the table (ids stay below MAX_CELLS); only the marked
    # entries are written and read
    ids = np.empty(span, dtype=np.int32)
    ids[values] = np.arange(values.size, dtype=np.int32)
    return ids[combo].astype(np.int64), values


def _one_way(values: np.ndarray, b_range: int) -> bool:
    """Whether no two of the sorted distinct pair ids ``values`` of a
    ``_pair_rank`` share their left id: each left id goes with one right id."""
    left = values // b_range
    return not (left[1:] == left[:-1]).any()


@dataclass(frozen=True)
class ShapeBox:
    """Every window shape of a grid with extents ``dims``, or with ``cubes``
    every cube (k, ..., k). ``rank_windows`` walks every shape without
    listing them; iterating gives the shapes in the order it yields them."""

    dims: tuple[int, ...]
    cubes: bool = False

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if self.cubes:
            return ((k,) * len(self.dims) for k in range(1, min(self.dims) + 1))
        ranges = (range(1, n + 1) for n in reversed(self.dims))
        return (s[::-1] for s in product(*ranges))


def rank_windows(
    grid: np.ndarray,
    wanted: Iterable[Sequence[int]] | ShapeBox,
    budget: WorkBudget | None,
    what: Sequence[str],
    stop: Callable[[int, tuple[int, ...]], bool] | None = None,
    one_way_stop: bool = False,
) -> Iterator[tuple[tuple[int, ...], np.ndarray, int]]:
    """Yield (shape, labels, count) for every wanted window shape of an id
    grid with any number of axes.

    ``labels`` holds one dense id per window position; two windows carry the
    same id iff their contents are equal, and ``count`` is the number of
    ids. The last axis is extended first: each shape comes from its
    predecessor by one ranking pass along one axis, which charges the new
    window count to ``budget`` (if any) under ``what[axis]``. Shapes are
    yielded in ascending order of their reversed tuples, and only the passes
    on the way to a wanted shape are made.

    ``stop`` is asked before every pass with its axis and the shape it would
    rank; when it answers true the chain along that axis ends there, so
    neither that shape nor any later shape of the chain, nor any shape
    reached through them, is ranked or yielded. With ``one_way_stop`` a
    chain also ends, unyielded, at the first shape whose pass has no more
    windows than the shape before and pairs each window of the shape before
    (that has a next slab) with one next slab only (``densest_shape``'s
    determinism stop).
    """
    dims = grid.shape
    if isinstance(wanted, ShapeBox) and not wanted.cubes:
        tree: dict | int = dims[-1]
    else:
        tree = {}  # last extent -> ... -> second extent -> {first: None}
        for shape in wanted:
            node = tree
            for k in reversed(shape[1:]):
                node = node.setdefault(k, {})
            node[shape[0]] = None
        if not tree:
            return

    def extend(axis: int, base: np.ndarray, base_range: int, node, suffix: tuple):
        # node maps the wanted extents along ``axis`` to the node below; an
        # int t stands for every extent up to t, each over every shape below
        every = type(node) is int
        n = base.shape[axis]
        lead = (slice(None),) * axis  # index prefix reaching ``axis``
        cur, count = base, base_range
        for k in range(1, (node if every else max(node)) + 1):
            if k > 1:
                if stop is not None and stop(axis, (1,) * axis + (k,) + suffix):
                    return
                width = n - k + 1
                if budget is not None:
                    budget.charge(cur.size // cur.shape[axis] * width, what[axis])
                cur, values = _pair_rank(
                    cur[lead + (slice(0, width),)],
                    count,
                    base[lead + (slice(k - 1, n),)],
                    base_range,
                )
                if one_way_stop and values.size <= count and _one_way(values, base_range):
                    return
                count = values.size
            if not (every or k in node):
                continue
            if axis == 0:
                yield (k,) + suffix, cur, count
            else:
                below = dims[axis - 1] if every else node[k]
                yield from extend(axis - 1, cur, count, below, (k,) + suffix)

    yield from extend(grid.ndim - 1, grid, int(grid.max()) + 1, tree, ())


def densest_shape(
    grid: np.ndarray,
    cubes_only: bool,
    budget: WorkBudget,
    what: Sequence[str],
    with_table: bool = False,
) -> tuple[Fraction, tuple[int, ...], dict[tuple[int, ...], int] | None]:
    """(value, shape, table) for the window shape of an id grid with the most
    distinct windows per unit of volume (cubes (k, ..., k) only if
    ``cubes_only``).

    ``value`` is count(shape) / vol(shape), maximal over the shapes; ties go
    to the smallest volume, then to the smallest shape tuple. ``table`` maps
    every shape to its count, in ascending order of reversed tuples, when
    ``with_table`` is set, else it is None.

    Windows are ranked by ``rank_windows``' passes, whose chains end as soon
    as no shape left on them can change the answer. All three prunings are
    exact:

    * saturation: once a shape s has count(s) >= W(s) - 1 (W(s) = prod(n_i -
      k_i + 1) windows, so at most one pair of them equal), every shape
      s' > s has count W(s'), since two equal windows of s' would give two
      different pairs of equal windows of s; so s' needs no pass, and as
      W(s') <= W(s) - 1 <= count(s) and vol(s') > vol(s), its value is
      below that of s. s itself keeps its count.
    * bound stop (not with a table): count(s)/vol(s) <= W(s)/vol(s), which
      falls along every axis, so a chain ends once that bound is strictly
      below the best value so far; ties can still reach the smallest shape.
    * determinism (not with a table, nor with ``cubes_only``): a chain ends
      at the first pass from t to t + e_a that pairs each window of t with
      one next slab only. Every shape left on the chain, and every shape
      reached from one through the axes before, has at most as many windows
      as its t-part, which was ranked or pruned, and a larger volume (module
      docstring), so its value is strictly lower. A table must list every
      count. With ``cubes_only`` the t-parts of the cubes left are not
      cubes, so they bound nothing. Such a chain leaves no ``first_sat``
      entry, which only means fewer chains end by saturation.
    """
    dims = grid.shape
    shapes = ShapeBox(dims, cubes_only)

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
    counts: dict[tuple[int, ...], int] = {}
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
        return not with_table and windows(low) * best_vol < best_count * prod(low)

    walk = rank_windows(grid, shapes, budget, what, stop, not (with_table or cubes_only))
    for shape, labels, count in walk:
        if count >= labels.size - 1:
            if cubes_only:
                sat_cube = min(sat_cube, shape[0])
            else:
                # the shape is on the chains of the axes up to its first
                # extent above 1
                first = next((i for i, k in enumerate(shape) if k > 1), len(shape) - 1)
                for axis in range(first + 1):
                    first_sat.setdefault((axis, shape[axis + 1 :]), shape[axis])
        if with_table:
            counts[shape] = count
        vol = prod(shape)
        gain = count * best_vol - best_count * vol
        if gain > 0 or gain == 0 and (vol, shape) < (best_vol, best_shape):
            best_count, best_vol, best_shape = count, vol, shape
    table = None
    if with_table:
        table = {s: counts[s] if s in counts else windows(s) for s in shapes}
    return Fraction(best_count, best_vol), best_shape, table


def _check_shape(m: Matrix2D, k1: int, k2: int) -> None:
    if not (1 <= k1 <= m.rows and 1 <= k2 <= m.cols):
        raise OutOfBounds(
            f"factor shape {k1}x{k2} does not fit in {m.rows}x{m.cols}"
        )


class WindowIds:
    """The content id of every window of a matrix, charged to no budget.

    ``labels(h, w)[i][j]`` is the label of the h x w window whose top-left
    cell is (i + 1, j + 1), as ``rank_windows`` gives it: two windows
    of a shape share a label iff their contents are equal, and labels follow
    the row-major order of the token tuples, so ``(h, w, label)`` sorts like
    ``(h, w, token grid)``. Every shape is ranked by one ``rank_windows``
    walk when the table is built; a shape's labels are turned into lists
    when first asked for, and kept."""

    def __init__(self, m: Matrix2D):
        walk = rank_windows(m._grid, ShapeBox((m.rows, m.cols)), None, RANKING_2D)
        self._ranked: dict[tuple[int, ...], tuple[np.ndarray, int]] = {
            shape: (labels, count) for shape, labels, count in walk
        }
        self._lists: dict[tuple[int, int], list[list[int]]] = {}

    def labels(self, h: int, w: int) -> list[list[int]]:
        """The labels of shape (h, w), one list per row of positions."""
        got = self._lists.get((h, w))
        if got is None:
            got = self._lists[h, w] = self._ranked[h, w][0].tolist()
        return got

    def count(self, h: int, w: int) -> int:
        """The number of distinct h x w windows."""
        return self._ranked[h, w][1]


def factor_count(
    m: Matrix2D, k1: int, k2: int, budget: WorkBudget | None = None
) -> int:
    """P_M(k1, k2): the number of distinct k1 x k2 factors of M."""
    _check_shape(m, k1, k2)
    return next(rank_windows(m._grid, [(k1, k2)], ensure_budget(budget), RANKING_2D))[2]


@dataclass(frozen=True)
class Factor2D:
    """A distinct factor content plus all its occurrences (RMO top-lefts)."""

    shape: FactorShape
    content: TokenGrid
    occurrences: tuple[Position, ...]


def distinct_factors(
    m: Matrix2D, k1: int, k2: int, budget: WorkBudget | None = None
) -> tuple[Factor2D, ...]:
    """All distinct k1 x k2 factors, ordered by first occurrence in RMO.

    Each factor lists every occurrence position in RMO.
    """
    _check_shape(m, k1, k2)
    labels = next(rank_windows(m._grid, [(k1, k2)], ensure_budget(budget), RANKING_2D))[1]
    occs: list[list[Position]] = [[] for _ in range(int(labels.max()) + 1)]
    for i, row in enumerate(labels.tolist(), 1):
        for j, lab in enumerate(row, 1):
            occs[lab].append((i, j))
    grid = m.tokens()
    out = []
    for occ in sorted(occs):  # by first occurrence: no two share one
        i, j = occ[0]
        content = tuple(row[j - 1 : j - 1 + k2] for row in grid[i - 1 : i - 1 + k1])
        out.append(Factor2D(FactorShape(k1, k2), content, tuple(occ)))
    return tuple(out)


def _box_mask(shape: Sequence[int], dims: Sequence[int]) -> int:
    """Bitmask (over the cells of a grid with extents ``dims``, row-major
    bit order) of the box of extents ``shape`` at the first cell; shifting
    it left by a cell's flat index moves the box's corner to that cell."""
    mask, stride = 1, 1
    for k, n in zip(reversed(shape), reversed(dims)):
        mask = sum(mask << (r * stride) for r in range(k))
        stride *= n
    return mask


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
# line 1:  2d <m> <n>
# then m lines of n whitespace-separated tokens. Blank lines are ignored
# everywhere; a line starting with '#' is a comment unless it splits into
# exactly n tokens while matrix rows are still expected (so alphabets that
# contain '#' round-trip).


def format_matrix(m: Matrix2D) -> str:
    lines = [f"2d {m.rows} {m.cols}"]
    lines.extend(" ".join(row) for row in m.tokens())
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix2D:
    lines = text.splitlines()
    header: tuple[int, int] | None = None
    grid: list[list[str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if line.startswith("#"):
                continue
            if len(parts) != 3 or parts[0] != "2d":
                raise ParseError(
                    f"line {lineno}: expected header '2d <m> <n>', got {line!r}"
                )
            try:
                rows, cols = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad dimensions") from exc
            if rows < 1 or cols < 1:
                raise ParseError(f"line {lineno}: dimensions must be >= 1")
            header = (rows, cols)
            continue
        if len(grid) < header[0]:
            if line.startswith("#") and len(parts) != header[1]:
                continue
            if len(parts) != header[1]:
                raise ParseError(
                    f"line {lineno}: expected {header[1]} tokens, "
                    f"got {len(parts)}"
                )
            grid.append(parts)
        elif not line.startswith("#"):
            raise ParseError(f"line {lineno}: trailing content {line!r}")
    if header is None:
        raise ParseError("missing '2d <m> <n>' header")
    if len(grid) != header[0]:
        raise ParseError(f"expected {header[0]} rows, got {len(grid)}")
    return Matrix2D.from_tokens(grid)


def read_matrix(path: str | Path) -> Matrix2D:
    return parse_matrix(Path(path).read_text())


def write_matrix(m: Matrix2D, path: str | Path) -> None:
    Path(path).write_text(format_matrix(m))
