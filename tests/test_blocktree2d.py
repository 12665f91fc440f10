import random

import numpy as np

from repet2d import (
    Matrix2D,
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
from repet2d.errors import BadParam

from util import Ledger, random_matrix, raises


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


def per_side_ranking(grid, wanted, budget, what):
    """The level sides ranked as they were before they shared one walk:
    each on its own chain, starting from the cells."""
    for shape in wanted:
        yield next(rank_windows(grid, [shape], budget, what))


def test_blocktree_equals_the_one_built_from_per_side_chains(monkeypatch):
    # same tree; the sides share their row ranking, so that ledger may only
    # fall, and every other one stays
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
        with monkeypatch.context() as patch:
            patch.setattr(blocktree2d, "rank_windows", per_side_ranking)
            want = build_blocktree(m, arity, pad_to=pad_to, budget=want_ledger)
        assert repr(got) == repr(want), (m, arity, pad_to)
        assert got_ledger.steps.get("row ranking", 0) <= want_ledger.steps.get("row ranking", 0)
        for what in ("column ranking", "block tree"):
            assert got_ledger.steps.get(what) == want_ledger.steps.get(what)


def test_blocktree_steps_equal_the_recorded_ledger():
    # the level sides share one row-ranking chain (750 and 6,441 row-ranking
    # steps when each side had its own)
    for m, pad_to, want in (
        (bk(3), 16, {"row ranking": 420, "column ranking": 375, "block tree": 257}),
        (bk(4), 32, {"row ranking": 3135, "column ranking": 3060, "block tree": 1057}),
    ):
        ledger = Ledger()
        build_blocktree(m, 2, pad_to=pad_to, budget=ledger)
        assert ledger.steps == want


def unique_first_windows(labels, count):
    """The first window of each label as it was found: np.unique's first
    index of each label in the row-major labels."""
    _, first_idx = np.unique(labels.ravel(), return_index=True)
    width = labels.shape[1]
    return [(int(idx) // width + 1, int(idx) % width + 1) for idx in first_idx]


def test_first_windows_equal_those_found_with_unique(monkeypatch):
    # every shape of every family and of seeded random matrices; trees built
    # with either are the same
    rng = random.Random(95)
    cases = [identity(9), zeros(5, 7), alt(6, 4), diagpad(5, 8), staircase(7), ek(3), bk(2),
             debruijn1d(4), cmblocks(4)]
    cases += [random_matrix(rng, 9, 9, ("01", "012", "abcdefgh")[t % 3]) for t in range(30)]
    for m in cases:
        for _, labels, count in rank_windows(m._grid, ShapeBox((m.rows, m.cols)), None, RANKING_2D):
            got = blocktree2d._first_windows(labels, count)
            assert got == unique_first_windows(labels, count)
            assert all(type(x) is int for position in got for x in position)
        for arity in (2, 3):
            got = build_blocktree(m, arity)
            with monkeypatch.context() as patch:
                patch.setattr(blocktree2d, "_first_windows", unique_first_windows)
                assert repr(got) == repr(build_blocktree(m, arity))
