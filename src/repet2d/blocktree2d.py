"""Block trees over 2D strings.

The matrix is padded (bottom/right) with a fresh sentinel token to a
side x side square, side the smallest power of the arity that fits — or a
caller-chosen one. Each level splits every surviving block into arity^2
square sub-blocks. A block is replaced by a pointer leaf when its content
occurs, free of sentinels, at a strictly earlier row-major position in the
matrix (any alignment); the earliest such occurrence is stored as the
source. Blocks containing sentinel cells therefore always survive to the
next level, and 1x1 blocks become symbol leaves.

The level sides (the powers of the arity that fit in the matrix) are ranked
by doubling, as in Karp-Miller-Rosenberg naming: two windows of side a*s
are equal iff the a x a grids of side-s windows that tile them are, so the
labels of side a*s come from those of side s in a - 1 ranking passes along
the rows, then a - 1 along the columns. Each pass charges its new windows to
the budget under "row ranking" or "column ranking". A level keeps only what
the tree reads, the first window equal to each aligned block, and its labels
are dropped once the next side is ranked, so memory stays O(rows * cols).
The tree is then built one level at a time on arrays of block corners, and
its nodes bottom-up, each level charging one "block tree" step per node
before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import WorkBudget, charge_each, ensure_budget
from .core2d import RANKING_2D, Matrix2D, Position, _pair_rank
from .errors import BadParam


@dataclass(frozen=True)
class BlockNode:
    """kind is 'internal' (subdivides), 'pruned' (pointer leaf with source),
    or 'symbol' (1x1 leaf with token). top/left are 1-based in the padded
    grid."""

    level: int
    top: int
    left: int
    side: int
    kind: str
    token: str | None = None
    source: Position | None = None
    children: tuple["BlockNode", ...] = ()


@dataclass(frozen=True)
class BlockTree:
    rows: int
    cols: int
    arity: int
    padded_side: int
    sentinel: str
    root: BlockNode
    levels: tuple[int, ...]


def _fresh_sentinel(alphabet: tuple[str, ...]) -> str:
    if "$" not in alphabet:
        return "$"
    k = 1
    while f"${k}" in alphabet:
        k += 1
    return f"${k}"


def _first_windows(labels: np.ndarray, count: int) -> np.ndarray:
    """The row-major index of the first window of each of the dense labels
    0 to ``count - 1`` of a 2D label grid."""
    first = np.full(count, labels.size)
    np.minimum.at(first, labels.ravel(), np.arange(labels.size))
    return first


def _level_sources(
    grid: np.ndarray, arity: int, budget: WorkBudget
) -> dict[int, np.ndarray]:
    """For each level side s > 1 that fits in the id grid, the row-major
    index, among its s x s windows, of the first window equal to each
    aligned s-block: entry (k, l) for the block whose top-left cell is
    (k * s, l * s), 0-based."""
    sources = {}
    labels, count, s = grid, int(grid.max()) + 1, 1
    while s * arity <= min(grid.shape):
        # along axis 1 the a windows of side s in a row become one band a*s
        # wide, then along axis 0 the a bands in a column one square
        for axis in (1, 0):
            base, base_count = labels, count
            lead = (slice(None),) * axis
            for j in range(1, arity):
                n = base.shape[axis] - j * s
                budget.charge(labels.size // labels.shape[axis] * n, RANKING_2D[axis])
                labels, values = _pair_rank(
                    labels[lead + (slice(0, n),)],
                    count,
                    base[lead + (slice(j * s, j * s + n),)],
                    base_count,
                )
                count = values.size
        s *= arity
        sources[s] = _first_windows(labels, count)[labels[::s, ::s]]
    return sources


def _node(level, top, left, side, kind, token, source, children,
          new=object.__new__, put=object.__setattr__) -> BlockNode:
    """``BlockNode(level, ..., children)``, its fields set as the frozen
    ``__init__`` sets them but without its global lookup per field: a third
    less time a node. One ``__dict__.update`` would take half the time of
    this but give every node a dict of its own, 336 bytes a node instead of
    153, which raised the peak RSS of the benchmark's represent-mix worker."""
    node = new(BlockNode)
    put(node, "level", level)
    put(node, "top", top)
    put(node, "left", left)
    put(node, "side", side)
    put(node, "kind", kind)
    put(node, "token", token)
    put(node, "source", source)
    put(node, "children", children)
    return node


def build_blocktree(
    m: Matrix2D,
    arity: int = 2,
    pad_to: int | None = None,
    budget: WorkBudget | None = None,
) -> BlockTree:
    if arity < 2:
        raise BadParam(f"arity must be >= 2, got {arity}")
    budget = ensure_budget(budget)
    side = 1
    while side < max(m.rows, m.cols):
        side *= arity
    if pad_to is not None:
        probe = 1
        while probe < pad_to:
            probe *= arity
        if probe != pad_to or pad_to < side:
            raise BadParam(
                f"pad_to={pad_to} is not a power of {arity} covering "
                f"{m.rows}x{m.cols}"
            )
        side = pad_to
    sentinel = _fresh_sentinel(m.alphabet)
    grid = m._grid
    sources = _level_sources(grid, arity, budget)

    # per level, top down: the side, the 0-based corners of its blocks in the
    # order of their nodes, and the 1-based source of each pruned block
    # ((0, 0) for a kept one)
    levels = []
    tops = lefts = np.zeros(1, dtype=np.int64)
    s = side
    while tops.size:
        charge_each(budget, tops.size, "block tree")
        src = np.zeros((tops.size, 2), dtype=np.int64)
        if s in sources:
            width = m.cols - s + 1
            at = ((tops + s <= m.rows) & (lefts + s <= m.cols)).nonzero()[0]
            first = sources[s][tops[at] // s, lefts[at] // s]
            earlier = first < tops[at] * width + lefts[at]
            src[at[earlier]] = np.stack(np.divmod(first[earlier], width), axis=1) + 1
        levels.append((s, tops, lefts, src))
        if s == 1:
            break
        # the arity^2 children of each kept block, in row-major order
        s //= arity
        step = np.arange(0, s * arity, s)
        kept = src[:, 0] == 0
        tops = (tops[kept, None] + np.repeat(step, arity)).ravel()
        lefts = (lefts[kept, None] + np.tile(step, arity)).ravel()

    letters = m.alphabet + (sentinel,)
    fan = arity * arity
    nodes: list[BlockNode] = []
    for level in range(len(levels) - 1, -1, -1):
        s, tops, lefts, src = levels[level]
        ys, xs = (tops + 1).tolist(), (lefts + 1).tolist()
        if s == 1:
            ids = np.full(tops.size, len(m.alphabet))  # the sentinel's
            inside = (tops < m.rows) & (lefts < m.cols)
            ids[inside] = grid[tops[inside], lefts[inside]]
            nodes = [
                _node(level, y, x, 1, "symbol", letters[i], None, ())
                for y, x, i in zip(ys, xs, ids.tolist())
            ]
            continue
        below, nodes, k = nodes, [], 0
        for y, x, (sy, sx) in zip(ys, xs, src.tolist()):
            if sy:
                nodes.append(_node(level, y, x, s, "pruned", None, (sy, sx), ()))
            else:
                nodes.append(_node(level, y, x, s, "internal", None, None, tuple(below[k : k + fan])))
                k += fan
    counts = tuple(level[1].size for level in levels)
    return BlockTree(m.rows, m.cols, arity, side, sentinel, nodes[0], counts)


def iter_nodes(node: BlockNode) -> Iterator[BlockNode]:
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def node_count(bt: BlockTree) -> int:
    return sum(bt.levels)


def count_pruned(bt: BlockTree, min_side: int = 1, in_region_only: bool = True) -> int:
    """Pointer leaves with side >= min_side; by default only blocks lying
    fully inside the unpadded matrix are counted."""
    total = 0
    for node in iter_nodes(bt.root):
        if node.kind != "pruned" or node.side < min_side:
            continue
        if in_region_only and not (
            node.top + node.side - 1 <= bt.rows
            and node.left + node.side - 1 <= bt.cols
        ):
            continue
        total += 1
    return total
