"""Straight-line programs on 2D strings.

A grammar has one rule per variable: a terminal (single symbol), a horizontal
or vertical concatenation of two variables, or — in run-length grammars — a
horizontal/vertical run X -> B^k with k >= 2. Size counts 1 per terminal rule
and 2 per other rule; run exponents are charged separately by bit_size.

The d-dimensional rules (concatenation or run along an explicit axis) live
here too: validation (resolve_dims) and expansion (expand_ids) read both rule
families by axis, so a 2D grammar is checked and expanded as the d = 2 case.

g_exact performs an exhaustive branch-and-bound over "closed content sets":
a grammar of minimum size corresponds to a minimum-cost set of distinct
factor contents that contains the whole matrix and in which every non-unit
content can be split (or de-run) into members of the set. Only the set
matters for the size, which keeps the search space manageable. A content is
a window of the matrix, named by its shape and its label in a window-id
table (``core2d.WindowIds``, one unbudgeted ``rank_windows`` walk over every
shape), so the parts of a split are read off the labels and no token grid
is sliced or hashed. Each call interns the
contents it meets as int ids in one table, which holds per id the cost, the
sort key and the options as tuples of part ids. For every option it keeps a
missing cost, the summed cost of its parts outside the member set. A watch
list from each part to its options updates these counts as members come
and go, so a member is closed iff one of its options misses nothing, and a
node's bound is the largest smallest missing cost over the open members. A
node reads that bound only as far as its prune decision needs. The search
runs on an explicit stack, so its depth is not limited by the interpreter's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, Union

import numpy as np

from .budget import WorkBudget, ensure_budget, stop_node
from .core2d import MAX_CELLS, Matrix2D, TokenGrid, WindowIds, id_dtype
from .errors import (
    BadParam,
    CycleDetected,
    DanglingVariable,
    DimMismatch,
    DuplicateRHS,
    ParseError,
    TooLarge,
)


@dataclass(frozen=True)
class Terminal:
    token: str


@dataclass(frozen=True)
class Horiz:
    left: str
    right: str


@dataclass(frozen=True)
class Vert:
    top: str
    bottom: str


@dataclass(frozen=True)
class RunH:
    count: int
    child: str


@dataclass(frozen=True)
class RunV:
    count: int
    child: str


Rule = Union[Terminal, Horiz, Vert, RunH, RunV]


@dataclass(frozen=True)
class ConcatNd:
    axis: int
    first: str
    second: str


@dataclass(frozen=True)
class RunNd:
    axis: int
    count: int
    child: str


RuleNd = Union[Terminal, ConcatNd, RunNd]

# Every rule of either family read as (token, axis, count, children): token
# is None for non-terminals and count is 0 for concatenations. Both families
# share Terminal. The 2D rules glue or repeat along axis 1 (rows: Vert, RunV)
# or 2 (columns: Horiz, RunH).
_RHS = {
    Terminal: lambda r: (r.token, 0, 0, ()),
    Horiz: lambda r: (None, 2, 0, (r.left, r.right)),
    Vert: lambda r: (None, 1, 0, (r.top, r.bottom)),
    RunH: lambda r: (None, 2, r.count, (r.child,)),
    RunV: lambda r: (None, 1, r.count, (r.child,)),
    ConcatNd: lambda r: (None, r.axis, 0, (r.first, r.second)),
    RunNd: lambda r: (None, r.axis, r.count, (r.child,)),
}


def rule_size(rule: Rule | RuleNd) -> int:
    return 1 if isinstance(rule, Terminal) else 2


def rule_bit_size(rule: Rule) -> int:
    """Like rule_size but additionally charges the bits of run exponents."""
    count = _rhs_key(rule)[2]
    return 2 + count.bit_length() if count else rule_size(rule)


def _rhs_key(rule: Rule | RuleNd) -> tuple:
    """The rule as (token, axis, count, children); two rules have the same
    right-hand side iff their keys are equal."""
    read = _RHS.get(type(rule))
    if read is None:
        raise BadParam(f"unknown rule type {type(rule).__name__}")
    return read(rule)


@dataclass(frozen=True, eq=True)
class Grammar2D:
    axiom: str
    rules: Mapping[str, Rule]

    @property
    def size(self) -> int:
        return sum(rule_size(r) for r in self.rules.values())

    @property
    def bit_size(self) -> int:
        return sum(rule_bit_size(r) for r in self.rules.values())

    @property
    def is_runlength(self) -> bool:
        return any(_rhs_key(r)[2] for r in self.rules.values())


@dataclass(frozen=True)
class GrammarInfo:
    size: int
    bit_size: int
    rows: int
    cols: int
    is_runlength: bool
    dims: Mapping[str, tuple[int, int]]


def _postorder(
    children: Mapping[str, tuple[str, ...]], roots: Iterable[str]
) -> Iterator[str]:
    """Every variable below ``roots`` once, children first (first before
    second), in the order a recursive walk would finish them. Iterative, so
    derivation depth is not limited by the interpreter's stack. Raises
    CycleDetected when a variable derives itself."""
    done: set[str] = set()
    for root in roots:
        if root in done:
            continue
        stack = [root]
        on_path = {root}
        while stack:
            name = stack[-1]
            for child in children[name]:
                if child not in done:
                    if child in on_path:
                        raise CycleDetected(f"variable {child} derives itself")
                    stack.append(child)
                    on_path.add(child)
                    break
            else:
                stack.pop()
                on_path.discard(name)
                done.add(name)
                yield name


def _mismatch(name: str, rule, d1: tuple, d2: tuple, j: int) -> str:
    _, axis, _, (first, second) = _rhs_key(rule)
    if isinstance(rule, ConcatNd):
        return (
            f"{name}: children {first} and {second} "
            f"differ on axis {j + 1} ({d1[j]} vs {d2[j]})"
        )
    kind, unit = ("horizontal", "rows") if axis == 2 else ("vertical", "cols")
    return (
        f"{name}: {kind} children {first} ({d1[j]} {unit}) "
        f"and {second} ({d2[j]} {unit}) differ"
    )


def resolve_dims(
    axiom: str, rules: Mapping[str, Rule | RuleNd], ndim: int
) -> tuple[dict[str, tuple], dict[str, tuple[int, ...]]]:
    """Check a grammar of either rule family over ``ndim`` axes. Return
    every rule as ``_rhs_key`` reads it (each is read once), in rule order,
    and the extents of every variable, in the order a recursive resolution
    started from each rule in insertion order would finish them.

    Rejects: undefined axiom or child (DanglingVariable), axes outside
    1..ndim and run exponents < 2 (BadParam), two variables with an
    identical right-hand side (DuplicateRHS), cyclic derivations
    (CycleDetected), and concatenated extents that differ off the glued axis
    (DimMismatch).
    """
    if axiom not in rules:
        raise DanglingVariable(f"axiom {axiom!r} has no rule")
    parts: dict[str, tuple] = {}
    seen_rhs: dict[tuple, str] = {}
    for name, rule in rules.items():
        key = token, axis, count, children = _rhs_key(rule)
        if token is None and not 1 <= axis <= ndim:
            raise BadParam(f"rule {name} uses axis {axis}; have 1..{ndim}")
        if len(children) == 1 and count < 2:
            raise BadParam(f"run rule {name} has exponent {count}; need >= 2")
        for child in children:
            if child not in rules:
                raise DanglingVariable(
                    f"rule {name} references undefined variable {child!r}"
                )
        if key in seen_rhs:
            raise DuplicateRHS(
                f"rules {seen_rhs[key]} and {name} have the same right-hand side"
            )
        seen_rhs[key] = name
        parts[name] = key

    dims: dict[str, tuple[int, ...]] = {}
    unit = (1,) * ndim
    kids = {name: key[3] for name, key in parts.items()}
    for name in _postorder(kids, rules):
        token, axis, count, children = parts[name]
        if token is not None:
            dims[name] = unit
            continue
        a = axis - 1
        if count:
            ext = list(dims[children[0]])
            ext[a] *= count
        else:
            d1, d2 = dims[children[0]], dims[children[1]]
            for j in range(ndim):
                if j != a and d1[j] != d2[j]:
                    raise DimMismatch(_mismatch(name, rules[name], d1, d2, j))
            ext = list(d1)
            ext[a] += d2[a]
        dims[name] = tuple(ext)
    return parts, dims


def expand_ids(
    axiom: str,
    rules: Mapping[str, Rule | RuleNd],
    dims: Mapping[str, tuple[int, ...]],
    budget: WorkBudget | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The id array (of ``id_dtype`` of its tokens) derived from the axiom
    of a grammar checked by resolve_dims, plus the sorted tokens its ids
    index. Each variable the axiom reaches is built once, children first,
    charging its cell count."""
    budget = ensure_budget(budget)
    shape = dims[axiom]
    if prod(shape) > MAX_CELLS:
        raise TooLarge(
            f"expansion is {'x'.join(map(str, shape))}; refusing more "
            f"than {MAX_CELLS} cells"
        )
    parts = {name: _rhs_key(rule) for name, rule in rules.items()}
    order = list(_postorder({n: key[3] for n, key in parts.items()}, [axiom]))
    tokens = tuple(sorted(parts[n][0] for n in order if parts[n][0] is not None))
    token_id = {t: i for i, t in enumerate(tokens)}
    dtype = id_dtype(len(tokens))
    arrays: dict[str, np.ndarray] = {}
    for name in order:
        token, axis, count, children = parts[name]
        budget.charge(prod(dims[name]), "grammar expansion")
        if token is not None:
            arr = np.full((1,) * len(shape), token_id[token], dtype=dtype)
        elif count:
            reps = [1] * len(shape)
            reps[axis - 1] = count
            arr = np.tile(arrays[children[0]], reps)
        else:
            arr = np.concatenate(
                [arrays[children[0]], arrays[children[1]]], axis=axis - 1
            )
        arrays[name] = arr
    return arrays[axiom], tokens


def validate_grammar(g: Grammar2D) -> GrammarInfo:
    """Check structural validity and return per-variable dimensions.

    Rejects: undefined axiom or child (DanglingVariable), run exponents < 2
    (BadParam), cyclic derivations (CycleDetected), mismatched concatenation
    dimensions (DimMismatch), and two variables with an identical right-hand
    side (DuplicateRHS).
    """
    parts, dims = resolve_dims(g.axiom, g.rules, 2)
    rows, cols = dims[g.axiom]
    size = sum(1 if token is not None else 2 for token, _, _, _ in parts.values())
    counts = [count for _, _, count, _ in parts.values()]
    bit_size = size + sum(count.bit_length() for count in counts)
    return GrammarInfo(size, bit_size, rows, cols, any(counts), dims)


def expand(g: Grammar2D, budget: WorkBudget | None = None) -> Matrix2D:
    """The matrix derived from the axiom."""
    info = validate_grammar(g)
    root, tokens = expand_ids(g.axiom, g.rules, info.dims, budget)
    return Matrix2D(info.rows, info.cols, root, tokens)


# ---------------------------------------------------------------------------
# grammar trees (derivation trees with secondary occurrences pruned)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrammarTreeNode:
    """kind is one of 'primary' (first occurrence of a variable, in preorder),
    'secondary' (further occurrences, kept as leaves), 'terminal' (symbol
    leaf), or 'collapsed' (the remaining k-1 copies under a run rule)."""

    label: str
    kind: str
    top: int
    left: int
    rows: int
    cols: int
    children: tuple["GrammarTreeNode", ...] = ()


@dataclass(frozen=True)
class GrammarTree:
    root: GrammarTreeNode
    node_count: int


def first_occurrences(
    g: Grammar2D, dims: Mapping[str, tuple[int, int]]
) -> Iterator[tuple[str, str, int, int, tuple, list[int] | None]]:
    """Walk the derivation from the axiom in preorder (left/top children
    first), expanding only the first occurrence of each variable; iterative,
    so the depth of the grammar does not matter.

    Yields (event, name, top, left, key, corner) with the occurrence's
    1-based top/left corner in the axiom's expansion: "open" before a first
    occurrence's children and "close" after them, both with the rule's
    ``_rhs_key`` (and at "close" ``corner``, the position just past the last
    child, where a run's remaining copies start), and "again" for each later
    occurrence, with None for both.
    """
    expanded: set[str] = set()
    stack: list[tuple] = []  # open occurrences: (name, top, left, key, children, corner)

    def occur(name: str, top: int, left: int) -> tuple:
        if name in expanded:
            return "again", name, top, left, None, None
        expanded.add(name)
        key = _rhs_key(g.rules[name])
        stack.append((name, top, left, key, iter(key[3]), [top, left]))
        return "open", name, top, left, key, None

    yield occur(g.axiom, 1, 1)
    while stack:
        name, top, left, key, children, corner = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            yield "close", name, top, left, key, corner
            continue
        yield occur(child, *corner)  # each child starts where the previous ends
        corner[key[1] - 1] += dims[child][key[1] - 1]


def grammar_tree(g: Grammar2D) -> GrammarTree:
    """The derivation tree in which only the preorder-first occurrence of each
    variable is expanded (left/top before right/bottom); later occurrences
    become secondary leaves, and the last k-1 copies of a run collapse into
    one leaf. Every node carries the rectangle it occupies in the expansion
    of the axiom (1-based top/left corner plus its own dimensions)."""
    dims = validate_grammar(g).dims
    count = 0
    kids: list[list[GrammarTreeNode]] = [[]]  # one list per open occurrence
    for event, name, top, left, key, corner in first_occurrences(g, dims):
        rows, cols = dims[name]
        if event == "open":
            kids.append([])
            continue
        if event == "again":
            kids[-1].append(GrammarTreeNode(name, "secondary", top, left, rows, cols))
            count += 1
            continue
        token, axis, runs, children = key
        leaf: tuple[GrammarTreeNode, ...] = ()
        if token is not None:
            leaf = (GrammarTreeNode(token, "terminal", top, left, 1, 1),)
        elif runs:
            leaf = (GrammarTreeNode(
                f"{children[0]}{'vh'[axis - 1]}^{runs - 1}",
                "collapsed",
                *corner,
                top + rows - corner[0],
                left + cols - corner[1],
            ),)
        count += 1 + len(leaf)
        mine = tuple(kids.pop()) + leaf
        kids[-1].append(GrammarTreeNode(name, "primary", top, left, rows, cols, mine))
    return GrammarTree(kids[0][0], count)


# ---------------------------------------------------------------------------
# exact smallest grammar
# ---------------------------------------------------------------------------


_CONTENT_CAP = 5000  # distinct contents g_exact fetches before it gives up
_CELL_SPAN = slice(0, 1)  # every cell's options: slot 0, which has no parts


class _ContentTable:
    """Every content one g_exact call meets, interned once as an int id, and
    a member set over those ids that keeps its closure counts incrementally.

    A content is a window of the matrix, named by its shape and its label in
    a ``WindowIds`` table, so no token grid is sliced or hashed. Per id: its
    cost, its key (an int that sorts like (rows, cols, token grid)) and the
    shape and first position it was met at. Once fetched, its options are
    the slots ``slots[span[i]]``, ``span[i]`` a slice stored once so that
    the search reads them without building it: those of ``options`` in
    order, each as a tuple of distinct part ids. Each fetch counts toward
    _CONTENT_CAP. Per slot, ``missing`` holds the summed cost of its parts
    that are not members, and ``watch`` lists per id the slots it is a part
    of, so adding or removing a member updates only those, and a content is
    closed iff one of its slots reads 0. A cell's span is slot 0, which has
    no parts and always reads 0, so a cell is never open and never
    fetched."""

    def __init__(self, m: Matrix2D, allow_runs: bool):
        self._labels = WindowIds(m).labels
        self.allow_runs = allow_runs
        # an h x w window's key (h * (cols + 1) + w) * area + label sorts
        # like (h, w, label): w <= cols and every label is below the area
        self._shapes, self._area = m.cols + 1, m.area
        self.ids: dict[int, int] = {}
        self.key: list[int] = []
        self.at: list[tuple[int, int, int, int]] = []
        self.cost: list[int] = []
        self.span: list[slice | None] = []
        self.watch: list[list[int]] = []
        self.slots: list[tuple[int, ...]] = [()]
        self.missing: list[int] = [0]
        self.members: set[int] = set()
        self.fetched = 0

    def intern(self, h: int, w: int, i: int, j: int) -> int:
        """The id of the h x w window at 0-based (i, j)."""
        key = (h * self._shapes + w) * self._area + self._labels(h, w)[i][j]
        c = self.ids.get(key)
        if c is None:
            c = self.ids[key] = len(self.key)
            self.key.append(key)
            self.at.append((h, w, i, j))
            cell = h == w == 1
            self.cost.append(1 if cell else 2)
            self.span.append(_CELL_SPAN if cell else None)
            self.watch.append([])
        return c

    def options(self, c: int) -> Iterator[tuple[str, int, tuple[int, ...]]]:
        """The ways to build content c as (kind, param, part ids), interning
        the parts: every horizontal split ("h", left width), every vertical
        split ("v", top height), then with runs every horizontal and every
        vertical run ("rh"/"rv", copies) of a base that tiles c."""
        h, w, i, j = self.at[c]
        intern = self.intern
        for v in range(1, w):
            yield "h", v, (intern(h, v, i, j), intern(h, w - v, i, j + v))
        for u in range(1, h):
            yield "v", u, (intern(u, w, i, j), intern(h - u, w, i + u, j))
        if not self.allow_runs:
            return
        labels = self._labels
        for ell in range(2, w + 1):
            if w % ell == 0:
                v = w // ell
                row = labels(h, v)[i]
                if all(row[j + t * v] == row[j] for t in range(1, ell)):
                    yield "rh", ell, (intern(h, v, i, j),)
        for ell in range(2, h + 1):
            if h % ell == 0:
                u = h // ell
                grid = labels(u, w)
                if all(grid[i + t * u][j] == grid[i][j] for t in range(1, ell)):
                    yield "rv", ell, (intern(u, w, i, j),)

    def fetch(self, c: int) -> None:
        cost, members, watch = self.cost, self.members, self.watch
        slots, missing = self.slots, self.missing
        lo = len(slots)
        for _, _, parts in self.options(c):
            a, b = parts[0], parts[-1]
            if a == b:
                parts = (a,)
            s = len(slots)
            slots.append(parts)
            watch[a].append(s)
            miss = 0 if a in members else cost[a]
            if a != b:
                watch[b].append(s)
                miss += 0 if b in members else cost[b]
            missing.append(miss)
        self.span[c] = slice(lo, len(slots))
        self.fetched += 1
        if self.fetched > _CONTENT_CAP:
            raise TooLarge(
                f"grammar search visited more than {_CONTENT_CAP} "
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

    def branches(self, opens: list[int]) -> list[tuple[int, tuple[int, ...]]]:
        """The ways to complete the pivot, the open member of largest key:
        (added cost, new parts) by added cost (1 to 4) then option order,
        one per distinct set of new parts."""
        members, slots, missing = self.members, self.slots, self.missing
        pivot = self.span[max(opens, key=self.key.__getitem__)]
        seen: set = set()
        by_cost: list[list] = [[], [], [], [], []]
        for parts, miss in zip(slots[pivot], missing[pivot]):
            a, b = parts[0], parts[-1]
            if a in members:
                new, tag = (b,), b
            elif b in members:
                new, tag = (a,), a
            elif a == b:
                new, tag = parts, a
            else:
                new, tag = parts, ((a, b) if a < b else (b, a))
            if tag not in seen:
                seen.add(tag)
                by_cost[miss].append((miss, new))
        return by_cost[1] + by_cost[2] + by_cost[3] + by_cost[4]


def _greedy_upper(table: _ContentTable, root: int) -> tuple[int, set[int]]:
    """Close {root} by always taking the first branch of the pivot; the
    table is left with no members."""
    cost, new, opens = table.cost[root], (root,), []
    span, missing = table.span, table.missing
    while True:
        table.add(new)
        for p in new:
            if span[p] is None:
                table.fetch(p)
        # closed members stay closed as the set grows
        opens = [c for c in (*opens, *new) if min(missing[span[c]])]
        if not opens:
            members = set(table.members)
            table.remove(tuple(members))
            return cost, members
        added, new = table.branches(opens)[0]
        cost += added


def _branch_and_bound(
    table: _ContentTable,
    root: int,
    upper: tuple[int, set[int]],
    work_limit: int,
    budget: WorkBudget,
) -> tuple[set[int], int, bool]:
    """Depth-first search for a cheapest closed member set containing root,
    starting from the bound ``upper`` = (cost, set). Each node counts one
    "grammar search" step before it fetches anything; the steps are charged
    in one call, at the node ``stop_node`` names or on the way out, so the
    budget raises at the same node, with the same ``used``, as if each node
    charged its own. It runs on an explicit stack of frames (cost, open
    members, remaining branches, ids the node added), so depth does not
    matter. Returns the best set, the nodes counted, and whether the search
    ended before work_limit.

    A node adds its new parts to the member set, fetches the options of
    those of cost 2, and keeps the open members: the parent's that are
    still open (closed ones stay closed as the set grows) and the new ones.
    The largest of their smallest missing costs is an admissible bound on
    the cost still to add, and the node is expanded iff some member is open
    and cost + max(bound, 1) < best cost. The bound is read lazily: the
    scan of the open members stops once a smallest missing cost reaches the
    gap best cost - cost, so with a gap of 1 it only finds whether some
    member is open. The table's add and remove steps are inlined over local
    lists: a node adds its parts first, and its frame removes them when it
    is popped."""
    best_cost, best_set = upper
    cost_of, span, watch = table.cost, table.span, table.watch
    missing, members, fetch = table.missing, table.members, table.fetch
    stop = stop_node(budget, work_limit)
    cost, new, opens = cost_of[root], (root,), []
    stack: list[tuple] = []
    work = 0
    try:
        while True:
            for p in new:
                step = cost_of[p]
                for s in watch[p]:
                    missing[s] -= step
                members.add(p)
            work += 1
            if work == stop:
                # the budget raises here if it runs out at this node, as it
                # would have one node at a time; else work_limit stops it
                budget.charge(work, "grammar search")
                return best_set, work, False
            for p in new:
                if span[p] is None:
                    fetch(p)
            # cost < best_cost holds here, as a branch is taken only below
            # the best cost; an open member's smallest missing cost is at
            # least 1, so with a gap of 1 the scan stops at the first open
            # member. A node that is not expanded gets a frame with no
            # branches, which the loop below pops at once.
            gap = best_cost - cost
            still: list[int] = []
            branches = ()
            for c in (*opens, *new):
                least = min(missing[span[c]])
                if least:
                    still.append(c)
                    if least >= gap:
                        break
            else:
                if still:
                    branches = iter(table.branches(still))
                else:
                    best_cost, best_set = cost, set(members)
            stack.append((cost, still, branches, new))
            while stack:
                cost, opens, branches, added = stack[-1]
                for step, new in branches:
                    if cost + step < best_cost:
                        break
                else:
                    stack.pop()
                    for p in added:
                        members.discard(p)
                        step = cost_of[p]
                        for s in watch[p]:
                            missing[s] += step
                    continue
                cost += step
                break
            else:
                return best_set, work, True
    finally:
        if work < stop:  # below stop the budget has room for every node
            budget.charge(work, "grammar search")


def _grammar_from_contents(
    table: _ContentTable, root: int, members: set[int], tokens: TokenGrid
) -> Grammar2D:
    """Deterministic reconstruction: each content takes its first option
    whose parts are all members; variables are named X1, X2, ... in preorder
    from the axiom, and each rule is added after its children's rules. A
    terminal reads its token from ``tokens``, the matrix's token grid. Runs
    on an explicit stack of (name, kind, param, parts), so the nesting depth
    of the set is not limited by the interpreter's."""
    names: dict[int, str] = {}
    rules: dict[str, Rule] = {}
    stack: list[tuple[str, str, int, tuple[int, ...]]] = []

    def visit(c: int) -> None:
        name = names[c] = f"X{len(names) + 1}"
        if table.cost[c] == 1:
            _, _, i, j = table.at[c]
            rules[name] = Terminal(tokens[i][j])
            return
        for kind, param, parts in table.options(c):
            if all(p in members for p in parts):
                stack.append((name, kind, param, parts))
                return
        raise AssertionError("content set is not closed")

    visit(root)
    while stack:
        name, kind, param, parts = stack[-1]
        todo = next((p for p in parts if p not in names), None)
        if todo is not None:
            visit(todo)
            continue
        stack.pop()
        kids = [names[p] for p in parts]
        if kind == "h":
            rules[name] = Horiz(*kids)
        elif kind == "v":
            rules[name] = Vert(*kids)
        elif kind == "rh":
            rules[name] = RunH(param, *kids)
        else:
            rules[name] = RunV(param, *kids)
    return Grammar2D(names[root], rules)


@dataclass(frozen=True)
class GrammarSearchResult:
    """optimal is False when work_limit ran out: the grammar is then only the
    best upper bound found so far."""

    grammar: Grammar2D
    optimal: bool
    work: int

    @property
    def size(self) -> int:
        return self.grammar.size


def g_exact(
    m: Matrix2D,
    allow_runs: bool = False,
    work_limit: int = 2_000_000,
    budget: WorkBudget | None = None,
) -> GrammarSearchResult:
    """A smallest grammar generating ``m`` (smallest run-length grammar when
    allow_runs). Exponential-time branch and bound; raises TooLarge once more
    than 5,000 distinct factor contents have been considered, and stops with
    optimal=False when work_limit search steps run out.

    Contents are windows of ``m`` named by their window ids, so reading the
    parts of a split costs O(1); ties between open contents go to the
    largest (rows, cols, token grid). Each search node costs one "grammar
    search" step, charged to the budget in one call per search (it raises
    at the same node as one call per node would), and its bound is read
    only as far as the prune decision needs."""
    budget = ensure_budget(budget)
    tokens = m.tokens()
    if m.area == 1:
        g = Grammar2D("X1", {"X1": Terminal(tokens[0][0])})
        return GrammarSearchResult(g, True, 0)
    table = _ContentTable(m, allow_runs)
    root = table.intern(m.rows, m.cols, 0, 0)
    upper = _greedy_upper(table, root)
    best, work, optimal = _branch_and_bound(table, root, upper, work_limit, budget)
    grammar = _grammar_from_contents(table, root, best, tokens)
    return GrammarSearchResult(grammar, optimal, work)


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------


def build_ek_grammar(k: int) -> Grammar2D:
    """Grammar of size 10k-6 (4 when k=1) for the k x 2**k bit-count matrix
    whose column j spells j in binary, least significant bit on top."""
    if not 1 <= k <= 20:
        raise BadParam(f"k must be in 1..20, got {k}")
    rules: dict[str, Rule] = {"X0": Terminal("0"), "Y0": Terminal("1")}
    for h in range(1, k):
        rules[f"X{h}"] = Horiz(f"X{h-1}", f"X{h-1}")
        rules[f"Y{h}"] = Horiz(f"Y{h-1}", f"Y{h-1}")
    rules["S1"] = Horiz("X0", "Y0")
    for h in range(2, k + 1):
        rules[f"R{h}"] = Horiz(f"S{h-1}", f"S{h-1}")
        rules[f"C{h}"] = Horiz(f"X{h-1}", f"Y{h-1}")
        rules[f"S{h}"] = Vert(f"R{h}", f"C{h}")
    return Grammar2D(f"S{k}", rules)


def build_zeros_rlslp(n: int) -> Grammar2D:
    """Size-5 run-length grammar for the n x n all-zero matrix (n >= 2)."""
    if n < 2:
        raise BadParam(f"n must be >= 2, got {n}")
    return Grammar2D(
        "X",
        {"X": RunV(n, "Y"), "Y": RunH(n, "Z"), "Z": Terminal("0")},
    )


def balanced_slp(
    text: str,
    leaf: Callable[[str], str],
    join: Callable[[str, str], Rule | RuleNd],
    prefix: str,
    rules: dict,
) -> tuple[str, list[tuple[str, str, str]]]:
    """Balanced SLP for a 1D string by recursive halving, each distinct
    piece built once. A one-symbol piece is the variable ``leaf(symbol)``;
    the i-th join is added to ``rules`` as ``prefix + str(i)`` with right-hand
    side ``join(first, second)``. Returns the axiom and the joins as
    (name, first, second) in creation order."""
    joins: list[tuple[str, str, str]] = []
    memo: dict[str, str] = {}

    def build(s: str) -> str:
        if s in memo:
            return memo[s]
        if len(s) == 1:
            name = leaf(s)
        else:
            mid = len(s) // 2
            first, second = build(s[:mid]), build(s[mid:])
            name = f"{prefix}{len(joins) + 1}"
            rules[name] = join(first, second)
            joins.append((name, first, second))
        memo[s] = name
        return name

    return build(text), joins


def build_bk_grammar(k: int) -> Grammar2D:
    """Grammar for the (2**k + k - 1)-square matrix with entries
    2*D[i] + D[j], D a binary de Bruijn-based string: two relabeled
    horizontal grammars for the rows, glued by a vertical copy of the same
    structure. Total size 3s - 2 for a 1D grammar of size s."""
    from .families import debruijn1d

    if not 1 <= k <= 12:
        raise BadParam(f"k must be in 1..12, got {k}")
    d = "".join(debruijn1d(k).row_tokens(1))
    rules: dict[str, Rule] = {}

    def terminal(symbol: str) -> str:
        rules.setdefault(f"T{symbol}", Terminal(symbol))
        return f"T{symbol}"

    ax0, struct0 = balanced_slp(d, terminal, Horiz, "H", rules)
    d_hi = d.translate(str.maketrans("01", "23"))
    ax1, _ = balanced_slp(d_hi, terminal, Horiz, "J", rules)
    lift_name = {"T0": ax0, "T1": ax1}
    for name, left, right in struct0:
        vname = "V" + name[1:]
        rules[vname] = Vert(lift_name[left], lift_name[right])
        lift_name[name] = vname
    return Grammar2D(lift_name[ax0], rules)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def format_grammar(g: Grammar2D) -> str:
    """Header ``axiom <name>`` (with an ``rl`` flag when run rules are used),
    then one rule per line in preorder from the axiom; unreachable rules
    follow sorted by name."""
    lines = [f"axiom {g.axiom} rl" if g.is_runlength else f"axiom {g.axiom}"]
    emitted: set[str] = set()
    order: list[str] = []

    stack = [g.axiom]
    while stack:
        name = stack.pop()
        if name in emitted or name not in g.rules:
            continue
        emitted.add(name)
        order.append(name)
        stack.extend(reversed(_rhs_key(g.rules[name])[3]))
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


def parse_grammar(text: str) -> Grammar2D:
    axiom: str | None = None
    runs_allowed = False
    rules: dict[str, Rule] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if axiom is None:
            if parts[0] != "axiom" or len(parts) not in (2, 3):
                raise ParseError(
                    f"line {lineno}: expected 'axiom <name> [rl]', got {raw!r}"
                )
            axiom = parts[1]
            if len(parts) == 3:
                if parts[2] != "rl":
                    raise ParseError(
                        f"line {lineno}: unknown axiom flag {parts[2]!r}"
                    )
                runs_allowed = True
            continue
        if len(parts) < 4 or parts[1] != "=":
            raise ParseError(f"line {lineno}: malformed rule {raw!r}")
        name, kind, args = parts[0], parts[2], parts[3:]
        if name in rules:
            raise ParseError(f"line {lineno}: duplicate rule for {name}")
        if kind == "term" and len(args) == 1:
            rules[name] = Terminal(args[0])
        elif kind == "h" and len(args) == 2:
            rules[name] = Horiz(args[0], args[1])
        elif kind == "v" and len(args) == 2:
            rules[name] = Vert(args[0], args[1])
        elif kind in ("rh", "rv") and len(args) == 2:
            if not runs_allowed:
                raise ParseError(
                    f"line {lineno}: run rule {name} requires the rl flag "
                    "on the axiom line"
                )
            try:
                count = int(args[0])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: run exponent {args[0]!r} is not an integer"
                ) from None
            if count < 2:
                raise ParseError(
                    f"line {lineno}: run exponent must be >= 2, got {count}"
                )
            rules[name] = (
                RunH(count, args[1]) if kind == "rh" else RunV(count, args[1])
            )
        else:
            raise ParseError(f"line {lineno}: malformed rule {raw!r}")
    if axiom is None:
        raise ParseError("missing axiom line")
    return Grammar2D(axiom, rules)


def read_grammar(path) -> Grammar2D:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grammar(fh.read())


def write_grammar(g: Grammar2D, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_grammar(g))
