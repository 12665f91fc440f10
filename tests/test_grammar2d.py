import inspect
import itertools
import random
import sys

from repet2d import (
    Grammar2D,
    Matrix2D,
    alt,
    bk,
    build_bk_grammar,
    build_ek_grammar,
    build_index,
    build_zeros_rlslp,
    decode,
    ek,
    expand,
    format_grammar,
    from_grammar,
    g_exact,
    grammar_tree,
    identity,
    parse_grammar,
    validate_grammar,
    zeros,
)
from repet2d.accept import random_grammar, sample_rlslp, sample_slp
from repet2d.errors import (
    BadParam,
    CycleDetected,
    DanglingVariable,
    DimMismatch,
    DuplicateRHS,
    ParseError,
    Repet2dError,
)
from repet2d import access2d, grammar2d
from repet2d.grammar2d import Horiz, RunH, Terminal, Vert, _ContentTable, _grammar_from_contents
from repet2d.multidim import build_bdk_grammar, expand_nd, grammar_to_nd, validate_nd

from util import (
    Ledger,
    mat,
    random_matrix,
    raises,
    recursive_dims_order,
    recursive_format_grammar,
    recursive_from_grammar,
    recursive_grammar_tree,
    reference_g_exact,
    slicing_g_exact,
)


def test_validate_reports_sizes_and_dims():
    g = sample_slp()
    info = validate_grammar(g)
    assert info.size == 12
    assert not info.is_runlength
    assert info.dims["S"] == (4, 6)
    assert info.dims["X"] == (1, 1)

    info_rl = validate_grammar(sample_rlslp())
    assert info_rl.size == 8
    assert info_rl.is_runlength


def test_validation_reads_each_rule_once(monkeypatch):
    reads = []
    read = grammar2d._rhs_key

    def counted(rule):
        reads.append(rule)
        return read(rule)

    monkeypatch.setattr(grammar2d, "_rhs_key", counted)
    monkeypatch.setattr(access2d, "_rhs_key", counted)
    g = build_ek_grammar(10)
    assert len(g.rules) == 48
    info = validate_grammar(g)
    assert len(reads) == 48
    assert (info.size, info.bit_size, info.is_runlength) == (g.size, g.size, False)
    reads.clear()
    build_index(g)
    assert len(reads) == 96  # the validation's reads, then the index's table
    g = sample_rlslp()
    reads.clear()
    info = validate_grammar(g)
    assert len(reads) == len(g.rules)
    assert (info.size, info.bit_size, info.is_runlength) == (8, g.bit_size, True)


def test_dims_keep_the_recursive_resolution_order():
    grammars = [build_ek_grammar(k) for k in (1, 3, 6)]
    grammars += [build_bk_grammar(k) for k in (1, 2, 3)]
    grammars += [build_zeros_rlslp(5), sample_slp(), sample_rlslp()]
    rng = random.Random(31)
    grammars += [random_grammar(rng) for _ in range(40)]
    for g in grammars:
        assert list(validate_grammar(g).dims) == recursive_dims_order(g.rules)
        gn = grammar_to_nd(g)
        assert list(validate_nd(gn).var_dims) == recursive_dims_order(gn.rules)
    for d, k in ((1, 3), (2, 2), (3, 2)):
        g = build_bdk_grammar(d, k)
        assert list(validate_nd(g).var_dims) == recursive_dims_order(g.rules)


def deep_grammar(depth: int) -> Grammar2D:
    """Left-deep chain of ``depth`` concatenations, rules listed axiom first,
    so resolving the axiom walks the whole depth before anything is known."""
    leaf = ["A" if i % 2 == 0 else "B" for i in range(depth - 1)]
    rules = {f"X{i}": Horiz(f"X{i + 1}", leaf[i]) for i in range(depth - 1)}
    rules[f"X{depth - 1}"] = Horiz("A", "B")
    rules.update(A=Terminal("a"), B=Terminal("b"))
    return Grammar2D("X0", rules)


def test_deep_grammar_needs_no_recursion():
    depth = 3000
    g = deep_grammar(depth)
    leaf = ["A" if i % 2 == 0 else "B" for i in range(depth - 1)]
    want = "ab" + "".join(leaf[::-1]).lower()
    info = validate_grammar(g)
    assert (info.rows, info.cols) == (1, depth + 1)
    assert "".join(expand(g).tokens()[0]) == want
    gn = grammar_to_nd(g)
    assert validate_nd(gn).dims == (1, depth + 1)
    assert "".join(expand_nd(gn).tokens_flat()) == want
    # every variable is primary once; each chain link adds one secondary leaf
    # and each of the two terminals one terminal leaf
    assert grammar_tree(g).node_count == 2 * depth + 3
    text = format_grammar(g)
    assert text.splitlines()[1:depth + 1] == [
        f"X{i} = h X{i + 1} {leaf[i]}" for i in range(depth - 1)
    ] + [f"X{depth - 1} = h A B"]
    assert parse_grammar(text) == g
    assert decode(from_grammar(g)) == expand(g)


def test_grammar_walks_equal_the_recursive_ones():
    grammars = [build_ek_grammar(k) for k in (1, 3, 5)]
    grammars += [build_bk_grammar(k) for k in (1, 2, 3)]
    grammars += [build_zeros_rlslp(6), sample_slp(), sample_rlslp(), deep_grammar(60)]
    rng = random.Random(32)
    grammars += [random_grammar(rng) for _ in range(60)]
    grammars.append(Grammar2D("S", {"S": Horiz("X", "X"), "X": Terminal("0"),
                                    "U": Terminal("1"), "T": Vert("X", "X")}))
    for g in grammars:
        assert grammar_tree(g) == recursive_grammar_tree(g)
        assert format_grammar(g) == recursive_format_grammar(g)
        assert repr(from_grammar(g)) == repr(recursive_from_grammar(g))


def test_validate_error_taxonomy():
    t = {"X": Terminal("0"), "Y": Terminal("1")}
    raises(DanglingVariable, validate_grammar, Grammar2D("S", t))
    raises(
        DanglingVariable,
        validate_grammar,
        Grammar2D("S", {"S": Horiz("X", "GONE"), **t}),
    )
    raises(
        CycleDetected,
        validate_grammar,
        Grammar2D("S", {"S": Horiz("A", "X"), "A": Vert("S", "X"), **t}),
    )
    raises(
        DuplicateRHS,
        validate_grammar,
        Grammar2D("S", {"S": Horiz("A", "B"), "A": Horiz("X", "Y"), "B": Horiz("X", "Y"), **t}),
    )
    # vertical glue of a 1x2 on a 1x1
    raises(
        DimMismatch,
        validate_grammar,
        Grammar2D("S", {"S": Vert("A", "X"), "A": Horiz("X", "Y"), **t}),
    )
    raises(
        BadParam,
        validate_grammar,
        Grammar2D("S", {"S": RunH(1, "X"), "X": Terminal("0")}),
    )


def test_expand_fixtures():
    assert expand(sample_slp()) == alt(4, 6)
    assert expand(sample_rlslp()) == alt(4, 6)
    assert expand(build_zeros_rlslp(7)) == zeros(7, 7)
    for k in (1, 2, 3, 4, 5):
        assert expand(build_ek_grammar(k)) == ek(k)
    for k in (1, 2, 3):
        assert expand(build_bk_grammar(k)) == bk(k)


def test_builder_sizes():
    # pinned constructions: linear in k for the bit-count family, quadratic
    # in k (logarithmic in the area) for the de Bruijn product
    for k in range(1, 8):
        assert build_ek_grammar(k).size == 10 * k - 6
    for k in range(1, 5):
        assert build_bk_grammar(k).size == 3 * k * k + 9 * k - 2
    assert build_zeros_rlslp(5).size == 5
    assert build_zeros_rlslp(64).size == 5
    raises(BadParam, build_ek_grammar, 0)
    raises(BadParam, build_bk_grammar, 0)
    raises(BadParam, build_zeros_rlslp, 0)


def naive_tree_count(g: Grammar2D) -> int:
    """Count pruned parse-tree nodes independently: expand the first
    occurrence of each variable in preorder, collapse run repeats; a
    terminal variable carries its symbol as a leaf child."""
    seen: set[str] = set()

    def walk(name: str) -> int:
        rule = g.rules[name]
        if name in seen:
            return 1  # secondary leaf
        seen.add(name)
        if isinstance(rule, Terminal):
            return 2
        if isinstance(rule, Horiz):
            return 1 + walk(rule.left) + walk(rule.right)
        if isinstance(rule, Vert):
            return 1 + walk(rule.top) + walk(rule.bottom)
        # run: expanded child once plus one collapsed leaf
        return 1 + walk(rule.child) + 1

    return walk(g.axiom)


def test_grammar_tree_against_naive_count():
    assert grammar_tree(sample_slp()).node_count == 13
    rng = random.Random(6)
    for _ in range(50):
        g = random_grammar(rng)
        t = grammar_tree(g)
        assert t.node_count == naive_tree_count(g)
        # the root covers the whole expansion
        m = expand(g)
        assert (t.root.rows, t.root.cols) == (m.rows, m.cols)
        assert (t.root.top, t.root.left) == (1, 1)


def test_grammar_tree_rectangles_tile():
    g = sample_rlslp()
    t = grammar_tree(g)
    m = expand(g)
    covered = [[0] * m.cols for _ in range(m.rows)]

    def paint(node):
        if node.children:
            for c in node.children:
                paint(c)
            return
        for y in range(node.top, node.top + node.rows):
            for x in range(node.left, node.left + node.cols):
                covered[y - 1][x - 1] += 1

    paint(t.root)
    assert all(v == 1 for row in covered for v in row)


def test_g_exact_optimal_small():
    res = g_exact(alt(4, 6))
    assert res.size == 12 and res.optimal
    assert expand(res.grammar) == alt(4, 6)
    res_rl = g_exact(alt(4, 6), allow_runs=True)
    assert res_rl.size == 8 and res_rl.optimal
    assert expand(res_rl.grammar) == alt(4, 6)


def test_g_exact_random_soundness():
    rng = random.Random(12)
    for _ in range(25):
        m = random_matrix(rng, 3, 3)
        plain = g_exact(m)
        rl = g_exact(m, allow_runs=True)
        assert plain.optimal and rl.optimal
        assert expand(plain.grammar) == m
        assert expand(rl.grammar) == m
        assert rl.size <= plain.size
        # any straight-line grammar needs ceil(log2 N) variables
        need = max(1, (m.area - 1).bit_length())
        assert len(plain.grammar.rules) >= need


def test_g_exact_single_cell():
    res = g_exact(mat("x"))
    assert res.size == 1 and res.optimal
    assert expand(res.grammar) == mat("x")


def test_g_exact_work_limit_flags_nonoptimal():
    res = g_exact(bk(2), allow_runs=True, work_limit=50)
    assert not res.optimal
    assert expand(res.grammar) == bk(2)  # still a correct upper bound


def _random_grid(rng, rows, cols, alphabet):
    return Matrix2D.from_tokens(
        [[rng.choice(alphabet) for _ in range(cols)] for _ in range(rows)]
    )


def _search_outcome(search, m, allow_runs, limit=None, **kw):
    """The result of a grammar search, or its exception, with the budget
    used and the steps charged per label."""
    ledger = Ledger()
    if limit is not None:
        ledger.limit = limit
    try:
        res = search(m, allow_runs, budget=ledger, **kw)
        got = (repr(res), res.work)
    except Repet2dError as exc:
        got = (type(exc).__name__, str(exc))
    return got, ledger.used, ledger.steps


def _capped_outcome(monkeypatch, cap, m, allow_runs, limit=None, **kw):
    """``_search_outcome`` of g_exact with its content cap set to cap."""
    with monkeypatch.context() as patch:
        patch.setattr(grammar2d, "_CONTENT_CAP", cap)
        return _search_outcome(g_exact, m, allow_runs, limit, **kw)


def test_g_exact_equals_the_reference_search():
    cases = []
    for rows in range(1, 4):
        for cols in range(1, 4):
            for bits in itertools.product("01", repeat=rows * cols):
                cells = [bits[i * cols:(i + 1) * cols] for i in range(rows)]
                cases.append((Matrix2D.from_tokens(cells), {}))
    assert len(cases) == 682
    rng = random.Random(2026)
    for shape in ((4, 4), (5, 4)):
        for alphabet in ("01", "012"):
            m = _random_grid(rng, *shape, alphabet)
            cases += [(m, {"work_limit": w}) for w in (50, 300, 1000, 2_000_000)]
    for m, kw in cases:
        for runs in (False, True):
            want = _search_outcome(reference_g_exact, m, runs, **kw)
            assert _search_outcome(g_exact, m, runs, **kw) == want, (m, runs, kw)


def test_g_exact_limits_fire_as_in_the_reference(monkeypatch):
    # TooLarge from the content cap, ShapeTooLarge from the budget and the
    # work_limit stop must come in the same order, at the same budget.used
    # (each visits fewer than 40 distinct contents, so the sweep crosses
    # from raising to finishing)
    rng = random.Random(7)
    inputs = [
        _random_grid(rng, *shape) for shape in ((3, 3, "012"), (3, 4, "01"), (2, 6, "01"))
    ]
    for m in inputs:
        for runs in (False, True):
            (_, work), total, _ = _search_outcome(reference_g_exact, m, runs)
            for cap in range(1, 41):
                for kw in ({}, {"work_limit": 20}):
                    want = _search_outcome(reference_g_exact, m, runs, content_limit=cap, **kw)
                    got = _capped_outcome(monkeypatch, cap, m, runs, **kw)
                    assert got == want, (m, runs, cap, kw)
            for limit in (1, 2, total // 2, total - 1, total, total + 1):
                for cap, kw in ((5000, {}), (5000, {"work_limit": work - 1}), (12, {})):
                    want = _search_outcome(
                        reference_g_exact, m, runs, limit, content_limit=cap, **kw
                    )
                    got = _capped_outcome(monkeypatch, cap, m, runs, limit, **kw)
                    assert got == want, (m, runs, limit, cap, kw)


def test_g_exact_equals_the_slicing_search():
    # the search on window ids must reproduce the former search over token
    # grids sliced and hashed at every fetch: result, work, budget used and
    # steps per label, on 1 x n strings, random 2D inputs and families
    rng = random.Random(2027)
    cases = [(_random_grid(rng, 1, n, "01"), {"work_limit": 1000}) for n in range(2, 49, 3)]
    for shape in ((4, 4), (5, 4)):
        for alphabet in ("01", "012"):
            for _ in range(2):
                m = _random_grid(rng, *shape, alphabet)
                cases += [(m, {"work_limit": w}) for w in (50, 300, 1000)]
    cases += [(m, {}) for m in (alt(4, 6), alt(2, 6), identity(3), identity(4), bk(1))]
    cases.append((bk(2), {"work_limit": 1000}))
    for m, kw in cases:
        for runs in (False, True):
            want = _search_outcome(slicing_g_exact, m, runs, **kw)
            assert _search_outcome(g_exact, m, runs, **kw) == want, (m, runs, kw)


def test_g_exact_limits_fire_as_in_the_slicing_search(monkeypatch):
    # TooLarge from the content cap and ShapeTooLarge from the budget come at
    # the same point as in the former search
    rng = random.Random(8)
    inputs = [_random_grid(rng, 1, 12, "01"), _random_grid(rng, 3, 4, "012"), identity(3)]
    for m in inputs:
        for runs in (False, True):
            _, total, _ = _search_outcome(slicing_g_exact, m, runs, work_limit=400)
            for cap in range(1, 60, 3):
                want = _search_outcome(slicing_g_exact, m, runs, content_limit=cap, work_limit=400)
                got = _capped_outcome(monkeypatch, cap, m, runs, work_limit=400)
                assert got == want, (m, runs, cap)
            for limit in (1, 2, total // 3, total - 1, total, total + 1):
                want = _search_outcome(slicing_g_exact, m, runs, limit, work_limit=400)
                got = _search_outcome(g_exact, m, runs, limit, work_limit=400)
                assert got == want, (m, runs, limit)


def test_g_exact_on_a_long_string_equals_the_slicing_search():
    # a fetch reads the parts of a 1 x n content's splits from window ids,
    # so the greedy chain over a 1 x 200 string stays cheap; the former
    # search sliced every split and took O(n^3) along that chain
    rng = random.Random(200)
    m = _random_grid(rng, 1, 200, "01")
    want = _search_outcome(slicing_g_exact, m, False, work_limit=100)
    assert _search_outcome(g_exact, m, False, work_limit=100) == want


def test_g_exact_steps_stay_at_most_the_recorded_ledger():
    # the search nodes g_exact ticks on these inputs, as recorded when the
    # search moved onto content ids: a change that adds nodes fails here
    rng = random.Random(44)
    first, second = _random_grid(rng, 4, 4, "01"), _random_grid(rng, 4, 4, "012")
    recorded = [
        ("alt(4, 6)", alt(4, 6), {}, 63),
        ("alt(4, 6) rl", alt(4, 6), {"allow_runs": True}, 26),
        ("bk(2) rl, work_limit 50", bk(2), {"allow_runs": True, "work_limit": 50}, 51),
        ("random 4x4 over 01", first, {}, 316),
        ("random 4x4 over 012 rl", second, {"allow_runs": True}, 4448),
    ]
    for name, m, kw, pinned in recorded:
        ledger = Ledger()
        g_exact(m, budget=ledger, **kw)
        assert set(ledger.steps) == {"grammar search"}, name
        assert ledger.steps["grammar search"] <= pinned, (name, ledger.steps)


def test_g_exact_deep_first_dive_stops_at_work_limit():
    # the first dive on this input (see test_cli) is deeper than Python's
    # recursion limit
    rng = random.Random(35)
    m = _random_grid(rng, 35, 35, "01")
    res = g_exact(m, work_limit=1200)
    assert not res.optimal and res.work == 1201
    assert expand(res.grammar) == m


def test_grammar_from_contents_needs_no_recursion():
    # a 1 x 300 string whose member set holds its suffixes: the first option
    # of each suffix peels one cell, so the set nests 300 deep
    rng = random.Random(12)
    row = tuple(rng.choice("01") for _ in range(300))
    root = (row,)
    table = _ContentTable(Matrix2D.from_tokens(root), False)
    members = {table.intern(1, 300 - i, 0, i) for i in range(300)}
    members |= {table.intern(1, 1, 0, row.index(t)) for t in "01"}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        g = _grammar_from_contents(table, table.intern(1, 300, 0, 0), members, root)
    finally:
        sys.setrecursionlimit(limit)
    assert expand(g).tokens() == root
    assert g.axiom == "X1" and len(g.rules) == 301


def test_format_parse_roundtrip():
    rng = random.Random(31)
    for _ in range(40):
        g = random_grammar(rng)
        back = parse_grammar(format_grammar(g))
        assert expand(back) == expand(g)
        assert back.size == g.size
    text = format_grammar(sample_rlslp())
    assert text.startswith("axiom S rl\n")


def test_parse_grammar_errors():
    raises(ParseError, parse_grammar, "")
    raises(ParseError, parse_grammar, "S = h A B\n")  # missing axiom header
    raises(ParseError, parse_grammar, "axiom S\nS = frob A B\n")
    raises(ParseError, parse_grammar, "axiom S\nS = h A\n")
    raises(ParseError, parse_grammar, "axiom S\nS = rh two X\nX = term 0\n")
    raises(ParseError, parse_grammar, "axiom S\nS = term 0\nS = term 1\n")
    # run rules require the rl flag on the header
    raises(ParseError, parse_grammar, "axiom S\nS = rh 3 X\nX = term 0\n")
