"""Block trees over 2D strings.

The matrix is padded (bottom/right) with a fresh sentinel token to a
side x side square, side the smallest power of the arity that fits — or a
caller-chosen one. Each level splits every surviving block into arity^2
square sub-blocks. A block is replaced by a pointer leaf when its content
occurs, free of sentinels, at a strictly earlier row-major position in the
matrix (any alignment); the earliest such occurrence is stored as the
source. Blocks containing sentinel cells therefore always survive to the
next level, and 1x1 blocks become symbol leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .budget import WorkBudget, ensure_budget
from .core2d import RANKING_2D, Matrix2D, Position, rank_windows
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


def _first_windows(labels: np.ndarray, count: int) -> list[Position]:
    """The 1-based position of the first window, in row-major order, of
    each of the dense labels 0 to ``count - 1`` of a 2D label grid."""
    first = np.full(count, labels.size)
    np.minimum.at(first, labels.ravel(), np.arange(labels.size))
    rows, cols = np.divmod(first, labels.shape[1])
    return list(zip((rows + 1).tolist(), (cols + 1).tolist()))


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

    # Earliest sentinel-free occurrence of every s x s content, per level side
    # (the powers of the arity) that fits in the matrix.
    fits, s = [], 1
    while s <= min(m.rows, m.cols):
        fits.append((s, s))
        s *= arity
    earliest: dict[int, tuple[np.ndarray, list[Position]]] = {}
    for (s, _), labels, count in rank_windows(m._grid, fits, budget, RANKING_2D):
        earliest[s] = (labels, _first_windows(labels, count))

    def make(level: int, top: int, left: int, s: int) -> BlockNode:
        budget.charge(1, "block tree")
        inside = top + s - 1 <= m.rows and left + s - 1 <= m.cols
        if s == 1:
            token = m.at(top, left) if inside else sentinel
            return BlockNode(level, top, left, 1, "symbol", token=token)
        if inside:
            labels, firsts = earliest[s]
            lab = int(labels[top - 1, left - 1])
            src = firsts[lab]
            if src < (top, left):
                return BlockNode(level, top, left, s, "pruned", source=src)
        child_side = s // arity
        children = tuple(
            make(level + 1, top + di * child_side, left + dj * child_side, child_side)
            for di in range(arity)
            for dj in range(arity)
        )
        return BlockNode(level, top, left, s, "internal", children=children)

    root = make(0, 1, 1, side)
    counts: dict[int, int] = {}
    for node in iter_nodes(root):
        counts[node.level] = counts.get(node.level, 0) + 1
    levels = tuple(counts[i] for i in range(len(counts)))
    return BlockTree(m.rows, m.cols, arity, side, sentinel, root, levels)


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
