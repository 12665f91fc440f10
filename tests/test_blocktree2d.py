import dataclasses
import gc
import pickle
import random
import tracemalloc

import numpy as np

from repet2d import (
    Matrix2D,
    WorkBudget,
    alt,
    bk,
    build_blocktree,
    cmblocks,
    count_pruned,
    debruijn1d,
    diagpad,
    ek,
    identity,
    node_count,
    staircase,
    zeros,
)
from repet2d import blocktree2d
from repet2d.blocktree2d import iter_nodes
from repet2d.core2d import RANKING_2D, ShapeBox, rank_windows
from repet2d.errors import BadParam, ShapeTooLarge

from util import (
    Ledger,
    doubling_ledger_ranking,
    random_matrix,
    raises,
    reference_build_blocktree,
)


def reconstruct(bt) -> Matrix2D:
    """Independent decoder.  For each cell, descend from the root into the
    child block containing it; at a pointer leaf, redirect the coordinate
    into the source occurrence and restart.  Terminates because sources
    are strictly earlier in row-major order."""

    def cell(y: int, x: int) -> str:
        for _ in range(10_000):
            node = bt.root
            while node.kind == "internal":
                node = next(
                    c
                    for c in node.children
                    if c.top <= y < c.top + c.side and c.left <= x < c.left + c.side
                )
            if node.kind == "symbol":
                return node.token
            assert node.kind == "pruned"
            sy, sx = node.source
            y, x = sy + (y - node.top), sx + (x - node.left)
        raise AssertionError("redirect chain did not terminate")

    return Matrix2D.from_tokens(
        [[cell(y, x) for x in range(1, bt.cols + 1)] for y in range(1, bt.rows + 1)]
    )


def test_frozen_level_profiles():
    assert build_blocktree(zeros(8, 8), 2).levels == (1, 4, 4, 4)
    assert build_blocktree(identity(4), 2).levels == (1, 4, 8)
    assert build_blocktree(zeros(9, 9), 3).levels == (1, 9, 9)


def test_reconstruction_matches_input():
    rng = random.Random(404)
    cases = [zeros(8, 8), identity(8), ek(3), bk(2), identity(5)]
    cases += [random_matrix(rng, 9, 9) for _ in range(40)]
    for m in cases:
        for arity in (2, 3):
            bt = build_blocktree(m, arity)
            assert reconstruct(bt) == m, f"{m.rows}x{m.cols} arity {arity}"


def test_pruned_sources_are_earlier_and_sentinel_free():
    rng = random.Random(9)
    for _ in range(25):
        m = random_matrix(rng, 8, 8)
        bt = build_blocktree(m, 2)
        for node in iter_nodes(bt.root):
            if node.kind != "pruned":
                continue
            assert node.source < (node.top, node.left)
            sy, sx = node.source
            assert sy + node.side - 1 <= m.rows
            assert sx + node.side - 1 <= m.cols
            # pointer target really holds the same content
            same = all(
                m.at(sy + dy, sx + dx) == reconstruct_cell(bt, node.top + dy, node.left + dx, m)
                for dy in range(node.side)
                for dx in range(node.side)
            )
            assert same


def reconstruct_cell(bt, y, x, m):
    """Original cell content behind padded coordinates (sentinel outside)."""
    if y <= m.rows and x <= m.cols:
        return m.at(y, x)
    return bt.sentinel


def test_padding_and_arity_validation():
    bt = build_blocktree(identity(5), 2)
    assert bt.padded_side == 8
    assert bt.sentinel not in identity(5).alphabet
    bt16 = build_blocktree(identity(5), 2, pad_to=16)
    assert bt16.padded_side == 16
    raises(BadParam, build_blocktree, identity(5), 1)
    raises(BadParam, build_blocktree, identity(5), 2, pad_to=12)
    raises(BadParam, build_blocktree, identity(5), 2, pad_to=4)


def test_count_pruned_filters():
    bt = build_blocktree(bk(3), 2, pad_to=16)
    total = count_pruned(bt, min_side=1, in_region_only=False)
    inside = count_pruned(bt, min_side=1, in_region_only=True)
    assert 0 <= inside <= total
    # every k x k window of the de Bruijn product is unique, so no
    # in-region block of side >= 3 can point elsewhere
    assert count_pruned(bt, min_side=3, in_region_only=True) == 0
    assert count_pruned(bt, min_side=2, in_region_only=True) > 0


def test_node_count_is_level_sum():
    bt = build_blocktree(identity(8), 2)
    assert node_count(bt) == sum(bt.levels)
    assert bt.levels[0] == 1


def blocky(rng, n, b, tiles=4):
    """An n x n grid of b x b boxes, each a copy of one of ``tiles`` random
    binary b x b tiles."""
    pool = [[[rng.choice("01") for _ in range(b)] for _ in range(b)] for _ in range(tiles)]
    pick = [[rng.choice(pool) for _ in range(n // b)] for _ in range(n // b)]
    return Matrix2D.from_tokens([[pick[i // b][j // b][i % b][j % b] for j in range(n)] for i in range(n)])


def per_side_ranking(grid, sides, budget):
    """The level sides ranked as they were before they shared one walk:
    each on its own chain, starting from the cells."""
    for s in sides:
        _, labels, count = next(rank_windows(grid, [(s, s)], budget, RANKING_2D))
        yield labels, count


def test_blocktree_equals_the_one_built_from_per_side_chains():
    # same tree; the sides are ranked by doubling, so no ranking ledger may
    # pass the one of ranking each side on its own chain, and the block-tree
    # steps stay one per node
    rng = random.Random(84)
    for trial in range(200):
        m = random_matrix(rng, 10, 10, ("01", "012", "abcdefgh")[trial % 3])
        arity = 2 + trial % 2
        side = 1
        while side < max(m.rows, m.cols):
            side *= arity
        pad_to = side * arity ** rng.randint(0, 1) if trial % 4 >= 2 else None
        got_ledger, want_ledger = Ledger(), Ledger()
        got = build_blocktree(m, arity, pad_to=pad_to, budget=got_ledger)
        want = reference_build_blocktree(m, arity, pad_to, want_ledger, per_side_ranking)
        assert repr(got) == repr(want), (m, arity, pad_to)
        for what in RANKING_2D:
            assert got_ledger.steps.get(what, 0) <= want_ledger.steps.get(what, 0)
        assert got_ledger.steps["block tree"] == want_ledger.steps["block tree"]


FAMILIES = [identity(9), zeros(5, 7), alt(6, 4), diagpad(5, 8), staircase(7), ek(3), bk(2),
            debruijn1d(4), cmblocks(4)]


def test_blocktree_equals_the_recursive_builder():
    # every family and 300 seeded random matrices, arity 2 to 4, also padded
    # one level further up to a side of 32: the same tree and the same
    # ledger as the recursive builder charging the ledger of ranking by
    # doubling
    rng = random.Random(1244)
    cases = FAMILIES + [random_matrix(rng, 12, 12, ("01", "012", "abcdefgh")[t % 3]) for t in range(300)]
    for m in cases:
        for arity in (2, 3, 4):
            side = 1
            while side < max(m.rows, m.cols):
                side *= arity
            for pad_to in (None, side * arity) if side * arity <= 32 else (None,):
                got_ledger, want_ledger = Ledger(), Ledger()
                got = build_blocktree(m, arity, pad_to=pad_to, budget=got_ledger)
                want = reference_build_blocktree(m, arity, pad_to, want_ledger, doubling_ledger_ranking)
                assert repr(got) == repr(want), (m, arity, pad_to)
                assert got_ledger.steps == want_ledger.steps
                # one block-tree charge per level
                assert got_ledger.calls["block tree"] == len(got.levels)


def test_blocktree_nodes_are_the_dataclasses_the_constructor_makes():
    # nodes made without the constructor: equal, of equal hash, repr and
    # field dict to the recursive builder's node for node, still frozen, and
    # a pickled tree loads equal
    for m in FAMILIES:
        got = build_blocktree(m, 2)
        want = reference_build_blocktree(m, 2, None, Ledger(), doubling_ledger_ranking)
        pairs = list(zip(iter_nodes(got.root), iter_nodes(want.root), strict=True))
        for a, b in pairs:
            assert type(a) is blocktree2d.BlockNode and a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) and vars(a) == vars(b)
        assert pickle.loads(pickle.dumps(got)) == got == want
        try:
            got.root.kind = "pruned"
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError("a node accepted an assignment")
    # and they are as small: 163 bytes a node of ek(5)'s 1,229, its tuples
    # included; with its fields set by one __dict__.update a node holds a
    # dict of its own, and the tree held 347 bytes a node
    build_blocktree(ek(5))
    gc.collect()
    tracemalloc.start()
    try:
        tree = build_blocktree(ek(5))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert node_count(tree) == 1229 and held < 200 * 1229, held


def _outcome(build, m, arity, pad_to, budget):
    try:
        out = repr(build(m, arity, pad_to, budget))
    except ShapeTooLarge as exc:
        out = f"raised {exc}"
    return out, budget.used


def test_blocktree_budget_stops_where_the_recursive_builder_does():
    # every limit up to one past the total: the same fault text and steps
    # used as ranking by doubling, then charging one step per node
    for m, arity, pad_to in ((bk(2), 2, 8), (random_matrix(random.Random(5), 7, 7), 3, None),
                             (identity(5), 2, None)):
        ledger = Ledger()
        build_blocktree(m, arity, pad_to=pad_to, budget=ledger)
        total = sum(ledger.steps.values())
        for limit in range(1, total + 2):
            got = _outcome(build_blocktree, m, arity, pad_to, WorkBudget(limit))
            want = _outcome(
                lambda *args: reference_build_blocktree(*args, ranking=doubling_ledger_ranking),
                m, arity, pad_to, WorkBudget(limit),
            )
            assert got == want, (m, limit)
            assert got[0].startswith("raised") == (limit < total)


def test_blocktree_steps_equal_the_recorded_ledger():
    # ranked by doubling (one chain walk over the level sides charged
    # 420/375, 3,135/3,060 and 129,024/131,535 row/column steps)
    for m, pad_to, want in (
        (bk(3), 16, {"row ranking": 174, "column ranking": 139, "block tree": 257}),
        (bk(4), 32, {"row ranking": 870, "column ranking": 740, "block tree": 1057}),
        (blocky(random.Random(64), 64, 8), None,
         {"row ranking": 15795, "column ranking": 14430, "block tree": 193}),
    ):
        ledger = Ledger()
        build_blocktree(m, 2, pad_to=pad_to, budget=ledger)
        assert ledger.steps == want


def unique_first_windows(labels, count):
    """The first window of each label as it was found: np.unique's first
    index of each label in the row-major labels."""
    _, first_idx = np.unique(labels.ravel(), return_index=True)
    return first_idx


def test_first_windows_equal_those_found_with_unique(monkeypatch):
    # every shape of every family and of seeded random matrices; trees built
    # with either are the same, with Python int positions
    rng = random.Random(95)
    cases = FAMILIES + [random_matrix(rng, 9, 9, ("01", "012", "abcdefgh")[t % 3]) for t in range(30)]
    for m in cases:
        for _, labels, count in rank_windows(m._grid, ShapeBox((m.rows, m.cols)), None, RANKING_2D):
            got = blocktree2d._first_windows(labels, count)
            assert got.tolist() == unique_first_windows(labels, count).tolist()
        for arity in (2, 3):
            got = build_blocktree(m, arity)
            assert all(
                type(x) is int
                for node in iter_nodes(got.root)
                for x in (node.top, node.left) + (node.source or ())
            )
            with monkeypatch.context() as patch:
                patch.setattr(blocktree2d, "_first_windows", unique_first_windows)
                assert repr(got) == repr(build_blocktree(m, arity))


def _random_binary(n):
    rng = random.Random(256)
    m = Matrix2D.from_tokens([[rng.choice("01") for _ in range(n)] for _ in range(n)])
    m._grid  # the cached id grid is the matrix's, not the build's
    return m


def test_blocktree_memory_peak_is_bounded():
    # the level labels are dropped once the next side is ranked: 4.2 MB on
    # a random binary 256 x 256, 3.2 MB of them the tree (22.5 MB when every
    # side had its labels and first-window tuples)
    m = _random_binary(256)
    tracemalloc.start()
    try:
        build_blocktree(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_blocktree_holds_no_memory_but_the_tree():
    # without the cycle collector, what the build leaves behind goes with
    # the tree (a recursive closure kept every level's labels alive: 22.6
    # MB); the interpreter keeps up to 2,000 freed tuples of each length
    m = _random_binary(256)
    gc.disable()
    tracemalloc.start()
    try:
        bt = build_blocktree(m)
        held = tracemalloc.get_traced_memory()[0]
        del bt
        tree = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held <= tree + 1_000_000, (held, tree)
