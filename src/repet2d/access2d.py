"""Random access to grammar-compressed matrices via heavy paths.

Every rule is read once, through ``_rhs_key``, as (token, axis, count,
children): a terminal, two children glued along axis 1 (rows) or 2
(columns), or ``count`` copies of one child along that axis. Every variable
walks to a terminal through its heavy child (the child with the larger
expansion, ties to the first; the first copy for run rules). Along that path
we store, per axis, the cumulative margins before and after each node that
its light siblings contribute.

A point query (``access``) binary-searches the deepest path node still
containing the target cell and then hops into a light child whose expansion
is at most half as large, so it makes at most floor(log2(rows*cols)) hops.

A batch of queries (``access_many``, and the scans ``full_scan`` and
``hop_bound_check``) takes the same hops in rounds, one numpy pass per hop
count, so floor(log2(rows*cols)) + 1 rounds answer every query (Bille et
al., "Random access to grammar-compressed strings and trees", SICOMP 2015).
Each call concatenates the margin arrays of every path into one sorted table
keyed by (path, margin array, margin), so one ``searchsorted`` per round
finds the exit node of every active query along both axes; finished queries
leave the batch.

A scan charges ``cols`` steps of "access scan" per row, as a cell-by-cell
scan that charges each row before reading it would: it reads the cells of
the rows the budget can still afford, in row-major blocks of at most
``_BLOCK`` cells, charges the rows it read up to the first mismatching cell,
and charges the next row, which then raises, only when no row is affordable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .budget import WorkBudget, ensure_budget
from .core2d import Position
from .errors import BadParam, OutOfBounds, TooLarge
from .grammar2d import Grammar2D, GrammarInfo, _rhs_key, expand_ids, validate_grammar

# The repr of HeavyPath, AccessIndex and ScanReport is what the benchmark's
# recorded build_index.* and full_scan.* output digests hash, so the fields
# those digests do not cover (AccessIndex.parts, ScanReport.histogram) stay
# out of repr and ==.


@dataclass(frozen=True)
class HeavyPath:
    """One variable's walk to its terminal. Entry i (0-based) describes path
    node i+1: u/d are the rows above/below (axis 1) and l/r the columns
    left/right (axis 2) of that node's expansion inside the expansion of the
    path's first variable."""

    names: tuple[str, ...]
    u: tuple[int, ...]
    d: tuple[int, ...]
    l: tuple[int, ...]
    r: tuple[int, ...]
    symbol: str
    y0: int
    x0: int


@dataclass(frozen=True)
class SuffixForest:
    """Heavy edges reversed: each variable's forest parent is its heavy
    child, so the roots are exactly the terminal variables and the path from
    any variable to its root spells its heavy path."""

    parent: Mapping[str, str | None]
    children: Mapping[str, tuple[str, ...]]
    roots: tuple[str, ...]


@dataclass(frozen=True)
class AccessIndex:
    grammar: Grammar2D
    info: GrammarInfo
    heavy: Mapping[str, str | None]
    paths: Mapping[str, HeavyPath]
    forest: SuffixForest
    # every rule as _rhs_key reads it, so a hop reads no rule object
    parts: Mapping[str, tuple] = field(repr=False, compare=False)

    @property
    def rows(self) -> int:
        return self.info.rows

    @property
    def cols(self) -> int:
        return self.info.cols


def build_index(g: Grammar2D, budget: WorkBudget | None = None) -> AccessIndex:
    info = validate_grammar(g)
    budget = ensure_budget(budget)
    dims = info.dims
    parts = {name: _rhs_key(rule) for name, rule in g.rules.items()}
    area = lambda v: dims[v][0] * dims[v][1]
    # max keeps the first of equal areas: the left/top child, the first copy
    heavy = {
        name: max(children, key=area) if children else None
        for name, (_, _, _, children) in parts.items()
    }
    paths: dict[str, HeavyPath] = {}
    for start in g.rules:
        names = [start]
        u, d, l, r = [0], [0], [0], [0]
        # per axis: its before and after margins, then the other axis's
        along = ((u, d, l, r), (l, r, u, d))
        cur = start
        while heavy[cur] is not None:
            budget.charge(1, "access index")
            _, axis, _, kids = parts[cur]
            nxt = heavy[cur]
            a = axis - 1
            before = 0 if nxt == kids[0] else dims[kids[0]][a]
            after = dims[cur][a] - before - dims[nxt][a]
            pre, post, o1, o2 = along[a]
            pre.append(pre[-1] + before)
            post.append(post[-1] + after)
            o1.append(o1[-1])
            o2.append(o2[-1])
            names.append(nxt)
            cur = nxt
        paths[start] = HeavyPath(
            tuple(names),
            tuple(u),
            tuple(d),
            tuple(l),
            tuple(r),
            parts[cur][0],
            u[-1] + 1,
            l[-1] + 1,
        )
    children: dict[str, list[str]] = {name: [] for name in g.rules}
    roots = []
    for name in sorted(g.rules):
        h = heavy[name]
        if h is None:
            roots.append(name)
        else:
            children[h].append(name)
    forest = SuffixForest(
        dict(heavy),
        {k: tuple(v) for k, v in children.items()},
        tuple(roots),
    )
    return AccessIndex(g, info, heavy, paths, forest, parts)


def _out_of_bounds(index: AccessIndex, y: int, x: int) -> OutOfBounds:
    return OutOfBounds(f"({y},{x}) outside {index.rows}x{index.cols} expansion")


def access(index: AccessIndex, y: int, x: int) -> tuple[str, int]:
    """Symbol at 1-based (y, x) of the expansion, plus the number of
    light-child hops the query needed. An index whose paths disagree with
    its grammar raises ``BadParam`` once the cell falls outside the variable
    it is in or the descent outlasts one hop per variable."""
    if not (1 <= y <= index.rows and 1 <= x <= index.cols):
        raise _out_of_bounds(index, y, x)
    qy, qx = y, x
    dims = index.info.dims
    parts = index.parts
    var = index.grammar.axiom
    hops = 0
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
        # a consistent index keeps the cell inside the variable (step >= 1),
        # and each hop moves into a proper descendant
        if step == 0 or hops == len(index.paths):
            raise BadParam(
                f"access index paths disagree with the grammar at cell ({qy}, {qx}) "
                f"after {hops} hop(s)"
            )
        # the cell leaves the heavy path below node ``step`` along ``axis``:
        # into the other child of a concatenation or a later copy of a run
        _, axis, count, children = parts[path.names[step - 1]]
        y -= path.u[step - 1]
        x -= path.l[step - 1]
        var = children[0]
        ext = dims[var][axis - 1]
        if axis == 1:
            if count:
                y = 1 + (y - 1) % ext
            elif y > ext:
                var, y = children[1], y - ext
        elif count:
            x = 1 + (x - 1) % ext
        elif x > ext:
            var, x = children[1], x - ext
        hops += 1


@dataclass(frozen=True)
class _Tables:
    """The index as int arrays for batched descents. Variables are numbered
    in rule order, symbols by their position in ``tokens`` (sorted).

    ``keys`` concatenates per variable its u, d, l and r margins, the a-th
    of its four arrays raised by (4·variable + a)·``width``, so the table is
    sorted and no array's keys reach the next one's. ``path`` has one row
    per variable: the keys searched for y - 1 above y0 (``+ y``) and for
    rows - y below it (``- y``), the same for x, the table positions of its
    four arrays, y0, x0, the path length k, the row of its first node in
    ``node``, and its symbol id. ``node`` has one row per path node: the u
    and l margins, whether the node's rule glues rows, the first child's
    extent along the rule's axis, the modulus that maps a run's copies onto
    the first (``width`` for a concatenation, where it changes nothing), and
    the first and second child (the first again for runs)."""

    axiom: int
    tokens: tuple[str, ...]
    keys: np.ndarray
    path: np.ndarray
    node: np.ndarray


def _tables(index: AccessIndex) -> _Tables:
    dims, paths = index.info.dims, index.paths
    vid = {name: v for v, name in enumerate(paths)}
    tokens = tuple(sorted({p.symbol for p in paths.values()}))
    tid = {t: i for i, t in enumerate(tokens)}
    # every margin and every searched value is below the largest extent
    width = max(max(d) for d in dims.values()) + 2
    if 4 * len(paths) * width > np.iinfo(np.int64).max:
        raise TooLarge(
            f"{index.rows}x{index.cols} expansion is too large for batched access"
        )
    moves = {}
    for name, (_, axis, count, kids) in index.parts.items():
        if kids:
            ext = dims[kids[0]][axis - 1]
            moves[name] = (axis == 1, ext, ext if count else width, vid[kids[0]], vid[kids[-1]])
        else:
            moves[name] = (0, 0, width, 0, 0)
    path, node, margins = [], [], []
    for v, (name, p) in enumerate(paths.items()):
        (rows, cols), k, at = dims[name], len(p.names), 4 * len(node)
        key = 4 * v * width
        path.append((
            key - 1, key + width + rows, key + 2 * width - 1, key + 3 * width + cols,
            at, at + k, at + 2 * k, at + 3 * k,
            p.y0, p.x0, k, len(node), tid[p.symbol],
        ))
        node += [(u, l, *moves[n]) for n, u, l in zip(p.names, p.u, p.l)]
        margins += p.u + p.d + p.l + p.r
    path = np.array(path, dtype=np.int64)
    keys = np.array(margins, dtype=np.int64) + np.repeat(
        np.arange(4 * len(paths), dtype=np.int64) * width, np.repeat(path[:, 10], 4)
    )
    return _Tables(
        vid[index.grammar.axiom], tokens, keys, path, np.array(node, dtype=np.int64)
    )


def _descend(t: _Tables, y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symbol ids and hop counts of the 1-based cells (y, x), by the rules
    of ``access`` applied to every query still active, one hop a round."""
    n = y.size
    sym = np.empty(n, dtype=np.int64)
    hops = np.empty(n, dtype=np.int64)
    at = np.arange(n)
    var = np.full(n, t.axiom, dtype=np.int64)
    h = 0
    while True:
        above, below, left, right, su, sd, sl, sr, y0, x0, k, first, s = t.path.take(var, 0).T
        down, across = y > y0, x > x0
        pos = np.searchsorted(t.keys, np.concatenate((
            np.where(down, below - y, above + y),
            np.where(across, right - x, left + x),
        )), "right")
        i = np.where(y == y0, k, pos[:n] - np.where(down, sd, su))
        j = np.where(x == x0, k, pos[n:] - np.where(across, sr, sl))
        step = np.minimum(i, j)
        end = step == k
        node = first + step - 1
        if end.any():
            sym[at[end]] = s[end]
            hops[at[end]] = h
            go = ~end
            at = at[go]
            n = at.size
            if not n:
                return sym, hops
            y, x, node = y[go], x[go], node[go]
        # the cell leaves the heavy path below node ``step`` along the axis of
        # its rule: into the other child of a concatenation or a later copy
        # of a run
        du, dl, rows, ext, mod, var, other = t.node.take(node, 0).T
        y, x = y - du, x - dl
        rows = rows > 0
        c = (np.where(rows, y, x) - 1) % mod + 1
        later = c > ext
        c -= later * ext
        y, x = np.where(rows, c, y), np.where(rows, x, c)
        var = np.where(later, other, var)
        h += 1
        # each hop moves into a proper descendant of the variable, so a
        # descent takes at most one round per variable unless the index's
        # paths disagree with its grammar
        if h == len(t.path):
            raise BadParam(
                f"access index paths disagree with the grammar: {n} cell(s) "
                f"still unresolved after {h} rounds, one per variable"
            )


def access_many(
    index: AccessIndex, queries: Iterable[tuple[int, int]]
) -> list[tuple[str, int]]:
    """``access`` for every 1-based (y, x) pair, in order, answered in at
    most floor(log2(rows*cols)) + 1 batched rounds. Every pair is checked
    before the first round: the first one outside the expansion raises.
    An index whose paths disagree with its grammar raises ``BadParam`` once
    a descent outlasts one round per variable."""
    queries = list(queries)
    for y, x in queries:
        if not (1 <= y <= index.rows and 1 <= x <= index.cols):
            raise _out_of_bounds(index, y, x)
    if not queries:
        return []
    t = _tables(index)
    yx = np.array(queries, dtype=np.int64)
    sym, hops = _descend(t, yx[:, 0], yx[:, 1])
    return list(zip(map(t.tokens.__getitem__, sym.tolist()), hops.tolist()))


def hop_bound(index: AccessIndex) -> int:
    """floor(log2(rows * cols)): no query hops more often than this."""
    return (index.rows * index.cols).bit_length() - 1


@dataclass(frozen=True)
class ScanReport:
    matches: bool
    max_hops: int
    hop_bound: int
    first_mismatch: Position | None = None
    # cells per hop count over the cells scanned (see the note on repr above)
    histogram: Mapping[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return self.matches and self.max_hops <= self.hop_bound


# cells a scan descends at once: bounds its working memory on any grammar
_BLOCK = 1 << 16


def _scan(
    index: AccessIndex,
    budget: WorkBudget,
    expected: tuple[np.ndarray, tuple[str, ...]] | None,
) -> ScanReport:
    """Access every cell in row-major order, charging each row, and count
    the cells per hop count; stop at the first cell whose symbol differs
    from ``expected`` (the expansion's ids and their tokens)."""
    t = _tables(index)
    rows, cols = index.rows, index.cols
    if expected is not None:
        ids, tokens = expected
        ids = ids.ravel()
        mine = {token: i for i, token in enumerate(t.tokens)}
        to_mine = np.array([mine.get(token, -1) for token in tokens], dtype=np.int64)
    counts = np.zeros(0, dtype=np.int64)
    charged = cell = 0
    mismatch = None
    while cell < rows * cols and mismatch is None:
        affordable = (budget.limit - budget.used) // cols
        stop = min(rows * cols, cell + _BLOCK, (charged + affordable) * cols)
        if stop <= cell:
            budget.charge(cols, "access scan")  # the next row is over the limit
        flat = np.arange(cell, stop, dtype=np.int64)
        sym, hops = _descend(t, flat // cols + 1, flat % cols + 1)
        if expected is not None:
            bad = np.flatnonzero(sym != to_mine[ids[cell:stop]])
            if bad.size:
                stop = cell + int(bad[0]) + 1
                hops = hops[: bad[0] + 1]
                mismatch = ((stop - 1) // cols + 1, (stop - 1) % cols + 1)
        seen = np.bincount(hops, minlength=counts.size)
        seen[: counts.size] += counts
        counts = seen
        read = -(-stop // cols)  # rows read so far, the last one maybe in part
        for _ in range(charged, read):
            budget.charge(cols, "access scan")
        charged, cell = read, stop
    hist = Counter({h: n for h, n in enumerate(counts.tolist()) if n})
    return ScanReport(mismatch is None, max(hist), hop_bound(index), mismatch, hist)


def hop_bound_check(index: AccessIndex, budget: WorkBudget | None = None) -> int:
    """Max hop count over all cells; callers compare it to hop_bound()."""
    return _scan(index, ensure_budget(budget), None).max_hops


def full_scan(index: AccessIndex, budget: WorkBudget | None = None) -> ScanReport:
    """Access every cell, compare against the full expansion, and record the
    worst hop count and the hop histogram of the cells scanned."""
    budget = ensure_budget(budget)
    g = index.grammar
    return _scan(index, budget, expand_ids(g.axiom, g.rules, index.info.dims, budget))
