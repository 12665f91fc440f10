"""Random access to grammar-compressed matrices via heavy paths.

Every variable walks to a terminal through its heavy child (the child with
the larger expansion, ties to the left/top; the first copy for run rules).
Along that path we store cumulative row/column margins contributed by light
children, so a query can binary-search the deepest path node still containing
the target cell and then hop into a light child whose expansion is at most
half as large. A query therefore makes at most floor(log2(rows*cols)) hops.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

from .budget import WorkBudget, ensure_budget
from .core2d import Matrix2D, Position
from .errors import OutOfBounds
from .grammar2d import (
    Grammar2D,
    GrammarInfo,
    Horiz,
    RunH,
    RunV,
    Terminal,
    Vert,
    expand,
    validate_grammar,
)


@dataclass(frozen=True)
class HeavyPath:
    """One variable's walk to its terminal. Entry i (0-based) describes path
    node i+1: u/d/l/r are the rows above/below and columns left/right of that
    node's expansion inside the expansion of the path's first variable."""

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

    @property
    def rows(self) -> int:
        return self.info.rows

    @property
    def cols(self) -> int:
        return self.info.cols


def _heavy_child(
    rule, dims: Mapping[str, tuple[int, int]]
) -> str | None:
    if isinstance(rule, Terminal):
        return None
    if isinstance(rule, (RunH, RunV)):
        return rule.child
    if isinstance(rule, Horiz):
        a, b = rule.left, rule.right
    else:
        a, b = rule.top, rule.bottom
    area = lambda v: dims[v][0] * dims[v][1]
    return a if area(a) >= area(b) else b


def build_index(g: Grammar2D, budget: WorkBudget | None = None) -> AccessIndex:
    info = validate_grammar(g)
    budget = ensure_budget(budget)
    dims = info.dims
    heavy = {name: _heavy_child(rule, dims) for name, rule in g.rules.items()}
    paths: dict[str, HeavyPath] = {}
    for start in g.rules:
        names = [start]
        u = [0]
        d = [0]
        l = [0]
        r = [0]
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
        terminal = g.rules[cur]
        assert isinstance(terminal, Terminal)
        paths[start] = HeavyPath(
            tuple(names),
            tuple(u),
            tuple(d),
            tuple(l),
            tuple(r),
            terminal.token,
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
    return AccessIndex(g, info, heavy, paths, forest)


def access(index: AccessIndex, y: int, x: int) -> tuple[str, int]:
    """Symbol at 1-based (y, x) of the expansion, plus the number of
    light-child hops the query needed."""
    if not (1 <= y <= index.rows and 1 <= x <= index.cols):
        raise OutOfBounds(
            f"({y},{x}) outside {index.rows}x{index.cols} expansion"
        )
    g = index.grammar
    dims = index.info.dims
    var = g.axiom
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
        rule = g.rules[path.names[step - 1]]
        yl = y - path.u[step - 1]
        xl = x - path.l[step - 1]
        if isinstance(rule, Horiz):
            nb = dims[rule.left][1]
            var, y, x = (
                (rule.left, yl, xl)
                if xl <= nb
                else (rule.right, yl, xl - nb)
            )
        elif isinstance(rule, Vert):
            mb = dims[rule.top][0]
            var, y, x = (
                (rule.top, yl, xl)
                if yl <= mb
                else (rule.bottom, yl - mb, xl)
            )
        elif isinstance(rule, RunH):
            nb = dims[rule.child][1]
            var, y, x = rule.child, yl, 1 + (xl - 1) % nb
        else:
            assert isinstance(rule, RunV)
            mb = dims[rule.child][0]
            var, y, x = rule.child, 1 + (yl - 1) % mb, xl
        hops += 1


def hop_bound(index: AccessIndex) -> int:
    """floor(log2(rows * cols)): no query hops more often than this."""
    return (index.rows * index.cols).bit_length() - 1


def hop_bound_check(index: AccessIndex, budget: WorkBudget | None = None) -> int:
    """Max hop count over all cells; callers compare it to hop_bound()."""
    budget = ensure_budget(budget)
    worst = 0
    for y in range(1, index.rows + 1):
        budget.charge(index.cols, "access scan")
        for x in range(1, index.cols + 1):
            worst = max(worst, access(index, y, x)[1])
    return worst


@dataclass(frozen=True)
class ScanReport:
    matches: bool
    max_hops: int
    hop_bound: int
    first_mismatch: Position | None = None

    @property
    def ok(self) -> bool:
        return self.matches and self.max_hops <= self.hop_bound


def full_scan(index: AccessIndex, budget: WorkBudget | None = None) -> ScanReport:
    """Access every cell, compare against the full expansion, and record the
    worst hop count."""
    budget = ensure_budget(budget)
    reference: Matrix2D = expand(index.grammar, budget)
    worst = 0
    for y in range(1, index.rows + 1):
        budget.charge(index.cols, "access scan")
        for x in range(1, index.cols + 1):
            symbol, hops = access(index, y, x)
            worst = max(worst, hops)
            if symbol != reference.at(y, x):
                return ScanReport(False, worst, hop_bound(index), (y, x))
    return ScanReport(True, worst, hop_bound(index))
