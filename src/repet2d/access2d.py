"""Random access to grammar-compressed matrices via heavy paths.

Every rule is read once, through ``_rhs_key``, as (token, axis, count,
children): a terminal, two children glued along axis 1 (rows) or 2
(columns), or ``count`` copies of one child along that axis. Every variable
walks to a terminal through its heavy child (the child with the larger
expansion, ties to the first; the first copy for run rules). Along that path
we store, per axis, the cumulative margins before and after each node that
its light siblings contribute, so a query can binary-search the deepest path
node still containing the target cell and then hop into a light child whose
expansion is at most half as large. A query therefore makes at most
floor(log2(rows*cols)) hops. One scan over every cell serves ``full_scan``,
``hop_bound_check`` and the hop histogram of ``access --verify-all``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .budget import WorkBudget, ensure_budget
from .core2d import Matrix2D, Position
from .errors import OutOfBounds
from .grammar2d import Grammar2D, GrammarInfo, _rhs_key, expand, validate_grammar

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


def access(index: AccessIndex, y: int, x: int) -> tuple[str, int]:
    """Symbol at 1-based (y, x) of the expansion, plus the number of
    light-child hops the query needed."""
    if not (1 <= y <= index.rows and 1 <= x <= index.cols):
        raise OutOfBounds(
            f"({y},{x}) outside {index.rows}x{index.cols} expansion"
        )
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


def _scan(
    index: AccessIndex, budget: WorkBudget, reference: Matrix2D | None
) -> ScanReport:
    """Access every cell in row-major order, charging each row, and count
    the cells per hop count; stop at the first cell whose symbol differs
    from ``reference``."""
    hist: Counter[int] = Counter()
    for y in range(1, index.rows + 1):
        budget.charge(index.cols, "access scan")
        for x in range(1, index.cols + 1):
            symbol, hops = access(index, y, x)
            hist[hops] += 1
            if reference is not None and symbol != reference.at(y, x):
                return ScanReport(False, max(hist), hop_bound(index), (y, x), hist)
    return ScanReport(True, max(hist), hop_bound(index), None, hist)


def hop_bound_check(index: AccessIndex, budget: WorkBudget | None = None) -> int:
    """Max hop count over all cells; callers compare it to hop_bound()."""
    return _scan(index, ensure_budget(budget), None).max_hops


def full_scan(index: AccessIndex, budget: WorkBudget | None = None) -> ScanReport:
    """Access every cell, compare against the full expansion, and record the
    worst hop count and the hop histogram of the cells scanned."""
    budget = ensure_budget(budget)
    return _scan(index, budget, expand(index.grammar, budget))
