"""Shared test helpers: naive oracles recomputed with dumb nested loops.

Everything here avoids the library's numpy ranking machinery on purpose,
so the fast implementations are checked against independent code. The
exceptions are the former implementations kept as oracles:
``reference_shape_labels``, the 2D-only window ranking that the d-axis
ranking must reproduce id for id; ``reference_delta``/``reference_delta_nd``,
the delta that ranks every shape, which the pruned delta must reproduce in
value, argmax shape and table; and the recursive grammar walks
``recursive_grammar_tree``, ``recursive_format_grammar`` and
``recursive_from_grammar``; ``reference_analyze_boxes``, the scheme
check that fills a Python list box by box and walks every copy chain cell
by cell, which the pointer-jumping check must match fault for fault; and
``reference_build_index``/``reference_access``/``reference_full_scan``, the
heavy-path index that switches over the 2D rule classes, which the index
reading rules by axis must reproduce in repr, answers and hop counts.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import add, le, mul, sub

import numpy as np

from repet2d import Matrix2D
from repet2d.access2d import AccessIndex, HeavyPath, ScanReport, SuffixForest, hop_bound
from repet2d.budget import WorkBudget, ensure_budget
from repet2d.core2d import MAX_CELLS, FactorShape, encode_tokens, iter_shape_labels
from repet2d.errors import OutOfBounds
from repet2d.grammar2d import (
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
from repet2d.macroscheme import MacroScheme2D, Phrase, SchemeCheck, walk_chains
from repet2d.measures import DeltaResult
from repet2d.multidim import iter_shape_labels_nd


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


def random_matrix(rng, max_rows=4, max_cols=4, alphabet="01"):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return Matrix2D.from_tokens(
        [[rng.choice(alphabet) for _ in range(cols)] for _ in range(rows)]
    )


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
    """A work budget that also records the steps charged under each label."""

    def __init__(self):
        super().__init__()
        self.steps: dict[str, int] = {}

    def charge(self, steps: int, what: str = "window scan") -> None:
        self.steps[what] = self.steps.get(what, 0) + steps
        super().charge(steps, what)


def _pair_rank(a, b):
    """Dense ranks of the element-wise pairs (a, b); ids follow value order."""
    combo = a.astype(np.int64) * (int(b.max()) + 1) + b
    _, inv = np.unique(combo, return_inverse=True)
    return inv.reshape(a.shape).astype(np.int64)


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


def reference_delta_nd(x, budget=None):
    """(value, shape) of dD delta over every window shape; ties go to the
    smallest volume, then the smallest shape tuple."""
    best = None
    for shape, labels in iter_shape_labels_nd(x, budget):
        vol = prod(shape)
        key = (-Fraction(int(labels.max()) + 1, vol), vol, shape)
        best = key if best is None else min(best, key)
    return -best[0], best[2]


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


def reference_decoded_cells(root, tokens):
    """Cell ids and alphabet of a decoded scheme, one dict lookup a cell."""
    ids, alphabet = encode_tokens(tokens.values())
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


def reference_full_scan(index: AccessIndex, budget=None) -> ScanReport:
    """The former full_scan: expand, then access every cell and stop at the
    first mismatch."""
    budget = ensure_budget(budget)
    reference = expand(index.grammar, budget)
    worst = 0
    for y in range(1, index.rows + 1):
        budget.charge(index.cols, "access scan")
        for x in range(1, index.cols + 1):
            symbol, hops = reference_access(index, y, x)
            worst = max(worst, hops)
            if symbol != reference.at(y, x):
                return ScanReport(False, worst, hop_bound(index), (y, x))
    return ScanReport(True, worst, hop_bound(index))


def reference_histogram(index: AccessIndex) -> Counter:
    """Cells per hop count, from the second scan ``access --verify-all``
    used to make."""
    return Counter(
        reference_access(index, y, x)[1]
        for y in range(1, index.rows + 1)
        for x in range(1, index.cols + 1)
    )
