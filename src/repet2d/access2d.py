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
is at most half as large, so it makes at most floor(log2(rows*cols)) hops
(Bille et al., "Random access to grammar-compressed strings and trees",
SICOMP 2015).

``access_many`` answers a list of queries by ``access`` one at a time,
after checking that every one lies inside the expansion.

A scan (``full_scan``, ``hop_bound_check``) is a traversal, not independent
queries (Gasieniec et al., DCC 2005): when the index holds exactly the paths
``build_index`` derives, the grid has at most ``MAX_CELLS`` cells and the
budget affords every row, one walk over the paths fills every cell's symbol
id and hop count (``_fill``); otherwise ``access`` answers it cell by cell,
and the scan stops at the first cell ``access`` refuses.

A scan charges ``cols`` steps of "access scan" per row, as a cell-by-cell
scan that charges each row before reading it would: it reads the cells of
the rows the budget can still afford, in row-major blocks of at most
``_BLOCK`` cells, charges the rows it read up to the first mismatching or
refused cell, and charges the next row, which then raises, only when no row
is affordable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from .budget import WorkBudget, charge_each, ensure_budget
from .core2d import MAX_CELLS, Position, id_dtype
from .errors import BadParam, OutOfBounds
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
        charge_each(budget, len(names) - 1, "access index")  # a step per heavy edge
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


def _symbols(index: AccessIndex) -> tuple[str, ...]:
    """The symbols the paths end in, sorted: a scan's symbol ids index them."""
    return tuple(sorted({p.symbol for p in index.paths.values()}))


def access_many(
    index: AccessIndex, queries: Iterable[tuple[int, int]]
) -> list[tuple[str, int]]:
    """``access`` for every 1-based (y, x) pair, in order. Every pair is
    checked before the first is answered: the first one outside the
    expansion raises."""
    queries = list(queries)
    for y, x in queries:
        if not (1 <= y <= index.rows and 1 <= x <= index.cols):
            raise _out_of_bounds(index, y, x)
    return [access(index, y, x) for y, x in queries]


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


# cells a scan reads at once: bounds its working memory on any grammar
_BLOCK = 1 << 16


def _shifted(margins: tuple[int, ...], by: int) -> tuple[int, ...]:
    """A child's path margins seen from its parent: a leading 0, then each
    raised by the parent's margin ``by``."""
    return (0,) + (tuple(map(by.__add__, margins)) if by else margins)


def _paths_are_derived(index: AccessIndex) -> bool:
    """Whether the index holds what ``build_index`` derives from its rules:
    the axiom spans the grid, every extent adds up by its rule, a terminal's
    path is itself, and any other variable's path is its heavy step (the
    child of larger area, the first of equal ones) followed by the heavy
    child's path shifted by that step. O(1) Python work a variable, plus
    tuple compares."""
    dims, paths, parts = index.info.dims, index.paths, index.parts
    if not (paths.keys() == parts.keys() == dims.keys()):
        return False
    if dims[index.grammar.axiom] != (index.rows, index.cols):
        return False
    area = lambda v: dims[v][0] * dims[v][1]
    for v, (token, axis, count, kids) in parts.items():
        if token is not None:
            want = HeavyPath((v,), (0,), (0,), (0,), (0,), token, 1, 1)
            if dims[v] != (1, 1) or paths[v] != want:
                return False
            continue
        a = axis - 1
        ext = list(dims[kids[0]])
        ext[a] = ext[a] * count if count else ext[a] + dims[kids[-1]][a]
        if tuple(ext) != dims[v] or dims[kids[-1]][1 - a] != ext[1 - a]:
            return False
        heavy = max(kids, key=area)
        q = paths[heavy]
        before = 0 if heavy == kids[0] else dims[kids[0]][a]
        after = dims[v][a] - before - dims[heavy][a]
        by = (before, after, 0, 0) if a == 0 else (0, 0, before, after)
        margins = map(_shifted, (q.u, q.d, q.l, q.r), by)
        if paths[v] != HeavyPath((v, *q.names), *margins, q.symbol, q.y0 + by[0], q.x0 + by[2]):
            return False
    return True


def _fill(index: AccessIndex, tokens: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The symbol id (into ``tokens``) and the hop count of every cell, as
    flat row-major arrays of ``id_dtype`` and int8, for an index that passes
    ``_paths_are_derived``. A variable's first occurrence walks its path
    down to the first node already placed (or its terminal), then back up,
    placing each node's light sibling one hop further down: the other child
    of a concatenation, recursively, or copies 2..count of a run, copied
    from the first and doubled. A later occurrence is one slice copy of the
    first, its hops shifted. So the Python work is O(rules), each cell is
    written once and the recursion is one level a hop deep."""
    dims, parts, paths = index.info.dims, index.parts, index.paths
    tid = {t: i for i, t in enumerate(tokens)}
    sym = np.empty((index.rows, index.cols), dtype=id_dtype(len(tokens)))
    hop = np.empty((index.rows, index.cols), dtype=np.int8)
    placed: dict[str, tuple[int, int, int]] = {}  # top, left and base hops

    def copy(sy: int, sx: int, y: int, x: int, m: int, n: int, shift: int) -> None:
        sym[y : y + m, x : x + n] = sym[sy : sy + m, sx : sx + n]
        np.add(hop[sy : sy + m, sx : sx + n], shift, out=hop[y : y + m, x : x + n])

    def place(var: str, y: int, x: int, h: int) -> None:
        p = paths[var]
        k = next((i for i, name in enumerate(p.names) if name in placed), None)
        if k is None:
            k = len(p.names) - 1
            ty, tx = y + p.u[k], x + p.l[k]
            sym[ty, tx], hop[ty, tx] = tid[p.symbol], h
            placed[p.names[k]] = (ty, tx, h)
        else:
            sy, sx, sh = placed[p.names[k]]
            copy(sy, sx, y + p.u[k], x + p.l[k], *dims[p.names[k]], h - sh)
        for i in range(k - 1, -1, -1):
            name = p.names[i]
            _, axis, count, kids = parts[name]
            ny, nx = y + p.u[i], x + p.l[i]
            m, n = dims[kids[0]]
            dy, dx = (m, 0) if axis == 1 else (0, n)  # where a second child starts
            if count:
                copy(ny, nx, ny + dy, nx + dx, m, n, 1)
                done = 1
                while done < count - 1:
                    c = min(done, count - 1 - done)
                    copy(ny + dy, nx + dx, ny + (done + 1) * dy, nx + (done + 1) * dx,
                         m + (c - 1) * dy, n + (c - 1) * dx, 0)
                    done += c
            elif p.names[i + 1] == kids[0]:
                place(kids[-1], ny + dy, nx + dx, h + 1)
            else:
                place(kids[0], ny, nx, h + 1)
            placed[name] = (ny, nx, h)

    place(index.grammar.axiom, 0, 0, 0)
    return sym.ravel(), hop.ravel()


def _access_block(
    index: AccessIndex, tokens: tuple[str, ...], cell: int, stop: int
) -> tuple[np.ndarray, np.ndarray, BadParam | None]:
    """``access`` of the row-major cells ``cell`` to ``stop - 1``: their
    symbol ids (into ``tokens``) and hop counts up to the first cell that
    ``access`` refuses, and that refusal (None when every cell is answered)."""
    answers, refused = [], None
    try:
        for y, x in map(divmod, range(cell, stop), repeat(index.cols)):
            answers.append(access(index, y + 1, x + 1))
    except BadParam as exc:
        refused = exc
    tid = {t: i for i, t in enumerate(tokens)}
    sym = np.array([tid[s] for s, _ in answers], dtype=np.int64)
    hops = np.array([h for _, h in answers], dtype=np.int64)
    return sym, hops, refused


def _scan(
    index: AccessIndex,
    budget: WorkBudget,
    expected: tuple[np.ndarray, tuple[str, ...]] | None,
) -> ScanReport:
    """Access every cell in row-major order, charging each row, and count
    the cells per hop count; stop at the first cell whose symbol differs
    from ``expected`` (the expansion's ids and their tokens), or raise the
    ``BadParam`` of the first cell ``access`` refuses. The cells come from
    ``_fill`` or, for an index it does not take, from ``access`` cell by
    cell; either way they are read a block at a time, so the report, the
    charges and any fault are those of calling ``access`` on each cell."""
    rows, cols = index.rows, index.cols
    tokens = _symbols(index)
    if (
        rows * cols <= MAX_CELLS
        and (budget.limit - budget.used) // cols >= rows
        and _paths_are_derived(index)
    ):
        sym_all, hops_all = _fill(index, tokens)
        read = lambda cell, stop: (sym_all[cell:stop], hops_all[cell:stop], None)
    else:
        read = lambda cell, stop: _access_block(index, tokens, cell, stop)
    if expected is not None:
        ids, expected_tokens = expected
        ids = ids.ravel()
        to_mine = None  # the same tokens number the same ids: no gather
        if expected_tokens != tokens:
            mine = {token: i for i, token in enumerate(tokens)}
            to_mine = np.array([mine.get(token, -1) for token in expected_tokens], dtype=np.int64)
    counts = np.zeros(0, dtype=np.int64)
    charged = cell = 0
    mismatch = None
    while cell < rows * cols and mismatch is None:
        affordable = (budget.limit - budget.used) // cols
        stop = min(rows * cols, cell + _BLOCK, (charged + affordable) * cols)
        if stop <= cell:
            budget.charge(cols, "access scan")  # the next row is over the limit
        sym, hops, refused = read(cell, stop)
        end = cell + sym.size
        if refused is not None:
            stop = end + 1  # the refused cell's row is charged before it raises
        if expected is not None:
            want = ids[cell:end] if to_mine is None else to_mine[ids[cell:end]]
            bad = np.flatnonzero(sym != want)
            if bad.size:
                stop = cell + int(bad[0]) + 1
                hops = hops[: bad[0] + 1]
                mismatch = ((stop - 1) // cols + 1, (stop - 1) % cols + 1)
                refused = None
        seen = np.bincount(hops, minlength=counts.size)
        seen[: counts.size] += counts
        counts = seen
        read_rows = -(-stop // cols)  # rows read so far, the last one maybe in part
        for _ in range(charged, read_rows):
            budget.charge(cols, "access scan")
        charged, cell = read_rows, stop
        if refused is not None:
            raise refused
    hist = Counter({h: n for h, n in enumerate(counts.tolist()) if n})
    return ScanReport(mismatch is None, max(hist), hop_bound(index), mismatch, hist)


def hop_bound_check(index: AccessIndex, budget: WorkBudget | None = None) -> int:
    """Max hop count over all cells; callers compare it to hop_bound(). The
    hops are filled by one walk over the paths, or read through ``access``
    cell by cell when the index is not what ``build_index`` derives, the
    grid is over ``MAX_CELLS`` or the budget is short of every row."""
    return _scan(index, ensure_budget(budget), None).max_hops


def full_scan(index: AccessIndex, budget: WorkBudget | None = None) -> ScanReport:
    """Access every cell, compare against the full expansion, and record the
    worst hop count and the hop histogram of the cells scanned. The cells'
    symbols and hops are filled by one walk over the paths, or read through
    ``access`` cell by cell when the index is not what ``build_index``
    derives or the budget is short of every row."""
    budget = ensure_budget(budget)
    g = index.grammar
    return _scan(index, budget, expand_ids(g.axiom, g.rules, index.info.dims, budget))
