"""Reference answers computed without the package's algorithms.

Window counts enumerate every window as a tuple of row slices, grammar
expansion concatenates Python lists, and block trees and macro schemes are
resolved cell by cell. They are slow on purpose and run only outside the
timed region, on the inputs small enough for them.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product


def grid_of(m) -> list[list[str]]:
    return [list(row) for row in m.tokens()]


def window_count(grid: list[list[str]], k1: int, k2: int) -> int:
    rows, cols = len(grid), len(grid[0])
    seen = set()
    for i in range(rows - k1 + 1):
        for j in range(cols - k2 + 1):
            seen.add(tuple(tuple(grid[i + a][j : j + k2]) for a in range(k1)))
    return len(seen)


def delta(grid: list[list[str]], square_only: bool = False) -> tuple[Fraction, tuple[int, int]]:
    """max P(k1,k2)/(k1*k2) and its shape; ties go to the smallest area, then
    the smallest k1."""
    rows, cols = len(grid), len(grid[0])
    best = None
    for k1 in range(1, rows + 1):
        for k2 in range(1, cols + 1):
            if square_only and k1 != k2:
                continue
            value = Fraction(window_count(grid, k1, k2), k1 * k2)
            key = (value, -k1 * k2, -k1)
            if best is None or key > best[0]:
                best = (key, (k1, k2))
    return best[0][0], best[1]


def is_attractor(grid: list[list[str]], positions, square_only: bool = False) -> bool:
    rows, cols = len(grid), len(grid[0])
    pos = set(positions)
    for k1 in range(1, rows + 1):
        for k2 in range(1, cols + 1):
            if square_only and k1 != k2:
                continue
            hit: dict[tuple, bool] = {}
            for i in range(rows - k1 + 1):
                for j in range(cols - k2 + 1):
                    content = tuple(tuple(grid[i + a][j : j + k2]) for a in range(k1))
                    inside = any(
                        (i + 1 + a, j + 1 + b) in pos for a in range(k1) for b in range(k2)
                    )
                    hit[content] = hit.get(content, False) or inside
            if not all(hit.values()):
                return False
    return True


def nd_delta(x) -> Fraction:
    """delta of an NdString by enumerating every window of every shape."""
    dims = x.dims
    cells = x.cells
    strides = [1] * len(dims)
    for a in range(len(dims) - 2, -1, -1):
        strides[a] = strides[a + 1] * dims[a + 1]
    best = Fraction(0)
    for shape in product(*(range(1, n + 1) for n in dims)):
        offsets = [
            sum(o * s for o, s in zip(off, strides))
            for off in product(*(range(k) for k in shape))
        ]
        seen = set()
        for corner in product(*(range(n - k + 1) for n, k in zip(dims, shape))):
            base = sum(c * s for c, s in zip(corner, strides))
            seen.add(tuple(cells[base + o] for o in offsets))
        best = max(best, Fraction(len(seen), len(offsets)))
    return best


def expand_grammar(g, classes) -> list[list[str]]:
    """Expansion by list concatenation; ``classes`` maps rule kind names
    (Terminal, Horiz, Vert, RunH, RunV) to the package's rule classes."""
    memo: dict[str, list[list[str]]] = {}
    stack = [(g.axiom, False)]
    while stack:
        name, ready = stack.pop()
        if name in memo:
            continue
        rule = g.rules[name]
        kids = children(rule, classes)
        if ready or not kids:
            memo[name] = _apply(rule, memo, classes)
            continue
        stack.append((name, True))
        stack.extend((k, False) for k in kids if k not in memo)
    return memo[g.axiom]


def children(rule, c) -> list[str]:
    if isinstance(rule, c["Terminal"]):
        return []
    if isinstance(rule, c["Horiz"]):
        return [rule.left, rule.right]
    if isinstance(rule, c["Vert"]):
        return [rule.top, rule.bottom]
    return [rule.child]


def _apply(rule, memo, c) -> list[list[str]]:
    if isinstance(rule, c["Terminal"]):
        return [[rule.token]]
    if isinstance(rule, c["Horiz"]):
        return [a + b for a, b in zip(memo[rule.left], memo[rule.right])]
    if isinstance(rule, c["Vert"]):
        return memo[rule.top] + memo[rule.bottom]
    if isinstance(rule, c["RunH"]):
        return [row * rule.count for row in memo[rule.child]]
    return memo[rule.child] * rule.count


def blocktree_grid(bt) -> list[list[str]]:
    """The matrix a block tree describes: symbol leaves give tokens, pointer
    leaves copy from their source, which is earlier in row-major order."""
    leaf: dict[tuple[int, int], tuple] = {}
    stack = [bt.root]
    while stack:
        node = stack.pop()
        if node.kind == "internal":
            stack.extend(node.children)
            continue
        for a in range(node.side):
            for b in range(node.side):
                leaf[(node.top + a, node.left + b)] = (node, a, b)
    out = [[""] * bt.cols for _ in range(bt.rows)]
    for i in range(1, bt.rows + 1):
        for j in range(1, bt.cols + 1):
            node, a, b = leaf[(i, j)]
            if node.kind == "symbol":
                out[i - 1][j - 1] = node.token
            else:
                si, sj = node.source
                out[i - 1][j - 1] = out[si + a - 1][sj + b - 1]
    return out


def decode_scheme(s) -> list[list[str]] | None:
    """Resolve a macro scheme by repeated passes over the copied cells; None
    when some cell never reaches an explicit one."""
    out: list[list] = [[None] * s.cols for _ in range(s.rows)]
    for (i, j), token in s.explicit.items():
        out[i - 1][j - 1] = token
    source = {}
    for p in s.phrases:
        for i in range(p.i1, p.i2 + 1):
            for j in range(p.j1, p.j2 + 1):
                source[(i, j)] = (p.si + i - p.i1, p.sj + j - p.j1)
    pending = list(source)
    while pending:
        rest = []
        for i, j in pending:
            si, sj = source[(i, j)]
            token = out[si - 1][sj - 1]
            if token is None:
                rest.append((i, j))
            else:
                out[i - 1][j - 1] = token
        if len(rest) == len(pending):
            return None
        pending = rest
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]
