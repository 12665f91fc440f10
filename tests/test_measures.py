import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

from repet2d import (
    AttractorSet,
    Matrix2D,
    WorkBudget,
    bk,
    delta,
    delta_square,
    diagpad,
    diagpad_attractor,
    ek,
    gamma_exact,
    gamma_lower_bound_unique,
    identity,
    is_attractor,
    phlin,
    rlin,
    staircase,
    zeros,
)
from repet2d import core2d, measures
from repet2d.core2d import RANKING_2D, FactorShape, _box_mask
from repet2d.measures import DeltaResult
from repet2d.families import debruijn_bits
from repet2d.multidim import NdString, bdk, delta_nd
from repet2d.errors import BadParam, ShapeTooLarge, TooLarge

import util
from util import (
    Ledger,
    _rect_mask,
    mat,
    naive_delta,
    naive_delta_1d,
    naive_factors,
    naive_gamma,
    naive_is_attractor,
    pass_only_densest_shape,
    random_matrix,
    raises,
    reference_coverage_masks,
    reference_delta,
    reference_gamma_lower_bound_unique,
    reference_is_attractor,
    reference_shape_labels,
    repetitive_matrix,
    substring_complexity,
    two_axis_coverage_masks,
    two_axis_gamma_lower_bound_unique,
    two_axis_is_attractor,
)


def test_delta_hand_values():
    assert delta(mat("0")).value == 1
    assert delta(zeros(3, 3)).value == 1
    assert delta(mat("01", "10")).value == Fraction(2, 1)
    # 2x2 identity: shapes (1,1)->2, (1,2)->2, (2,1)->2, (2,2)->1
    assert delta(identity(2)).value == 2
    res = delta(identity(2))
    assert (res.argmax_shape.k1, res.argmax_shape.k2) == (1, 1)


def test_delta_against_naive_oracle():
    rng = random.Random(20260814)
    for trial in range(120):
        m = random_matrix(rng, 5, 5, "01" if trial % 3 else "abc")
        assert delta(m).value == naive_delta(m), str(m)
        assert delta_square(m).value == naive_delta(m, square_only=True), str(m)
        assert delta_square(m).value <= delta(m).value


def test_delta_1d_matches_substring_complexity():
    """On one-row matrices delta must equal the classic 1D definition."""
    rng = random.Random(3)
    for n in list(range(1, 40)) + [100, 200]:
        s = "".join(rng.choice("01") for _ in range(n))
        m = Matrix2D.from_tokens([list(s)])
        assert delta(m).value == naive_delta_1d(s), s
    # Thue-Morse-ish sanity: delta of 0110100110010110 via the P(k) table
    s = "0110100110010110"
    table = substring_complexity(s)
    assert max(Fraction(p, k) for k, p in table.items()) == delta(
        Matrix2D.from_tokens([list(s)])
    ).value


def test_delta_table_option():
    m = ek(2)
    res = delta(m, with_table=True)
    assert res.table is not None
    assert res.table[(2, 2)] > 0
    assert res.value == max(
        Fraction(p, k1 * k2) for (k1, k2), p in res.table.items()
    )


def test_delta_budget_exhaustion():
    raises(ShapeTooLarge, delta, ek(4), budget=WorkBudget(limit=10))


def _assert_steps_at_most(got_ledger, ref_ledger):
    for label, steps in got_ledger.steps.items():
        assert steps <= ref_ledger.steps.get(label, 0), (label, steps)


def test_measures_equal_those_on_the_2d_reference_ranking():
    rng = random.Random(73)
    cases = []
    for _ in range(25):
        m = random_matrix(rng, 6, 6, "ab")
        cells = [(i, j) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)]
        cases.append((m, rng.sample(cells, rng.randint(1, min(3, len(cells))))))
    checks = []
    for m, cand in cases:
        for square_only in (False, True):
            got_ledger, ref_ledger = Ledger(), Ledger()
            got = is_attractor(m, cand, square_only, budget=got_ledger)
            want = reference_is_attractor(m, cand, square_only, budget=ref_ledger,
                                          ranking=reference_shape_labels)
            assert repr(got) == repr(want), str(m)
            _assert_steps_at_most(got_ledger, ref_ledger)
            checks.append(got)
        got_ledger, ref_ledger = Ledger(), Ledger()
        assert gamma_lower_bound_unique(m, budget=got_ledger) == reference_gamma_lower_bound_unique(
            m, budget=ref_ledger, ranking=reference_shape_labels
        ), str(m)
        _assert_steps_at_most(got_ledger, ref_ledger)
    assert any(not check for check in checks)  # failure reports too
    # delta no longer ranks through iter_shape_labels: compare it with the
    # full enumeration on the reference ranking instead
    for m, _ in cases:
        for square_only in (False, True):
            want = reference_delta(m, square_only, True, ranking=reference_shape_labels)
            assert repr(delta(m, square_only, with_table=True)) == repr(want)


def test_attractor_check_and_lower_bound_equal_the_full_scans():
    # the chains' stops (covered frontier, failure cut, dominance) change no
    # result and only remove ranking steps
    rng = random.Random(1207)
    outcomes = set()
    for trial in range(2000):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        letters = ("01", "012", "0123456789abcdef")[trial % 3]
        m = Matrix2D.from_tokens(
            [[rng.choice(letters) for _ in range(cols)] for _ in range(rows)]
        )
        density = rng.random()
        cand = [
            (i, j)
            for i in range(1, rows + 1)
            for j in range(1, cols + 1)
            if rng.random() < density
        ]
        for square_only in (False, True):
            got_ledger, ref_ledger = Ledger(), Ledger()
            got = is_attractor(m, cand, square_only, budget=got_ledger)
            want = reference_is_attractor(m, cand, square_only, budget=ref_ledger)
            assert repr(got) == repr(want), (str(m), cand, square_only)
            _assert_steps_at_most(got_ledger, ref_ledger)
            outcomes.add(got.ok or (got.shape.k1 > 1, got.shape.k2 > 1))
        got_ledger, ref_ledger = Ledger(), Ledger()
        got = gamma_lower_bound_unique(m, budget=got_ledger)
        want = reference_gamma_lower_bound_unique(m, budget=ref_ledger)
        assert got == want, str(m)
        _assert_steps_at_most(got_ledger, ref_ledger)
    # attractors, and failures at shapes of every kind
    assert outcomes == {True, (False, False), (False, True), (True, False), (True, True)}


def _assert_layer_equals_the_two_axis_one(m, cand):
    runs = [
        (lambda b: gamma_lower_bound_unique(m, budget=b),
         lambda b: two_axis_gamma_lower_bound_unique(m, budget=b)),
    ]
    for square_only in (False, True):
        runs += [
            (lambda b, s=square_only: is_attractor(m, cand, s, budget=b),
             lambda b, s=square_only: two_axis_is_attractor(m, cand, s, budget=b)),
            (lambda b, s=square_only: measures._coverage_masks(m._grid, s, b, RANKING_2D),
             lambda b, s=square_only: two_axis_coverage_masks(m, s, b)),
        ]
    for got_run, want_run in runs:
        got_ledger, want_ledger = Ledger(), Ledger()
        assert repr(got_run(got_ledger)) == repr(want_run(want_ledger)), (str(m), cand)
        assert got_ledger.steps == want_ledger.steps, (str(m), cand)
    for k1, k2 in product(range(1, m.rows + 1), range(1, m.cols + 1)):
        assert _box_mask((k1, k2), (m.rows, m.cols)) == _rect_mask(k1, k2, m.cols)


def test_attractor_layer_equals_the_two_axis_one():
    # the layer written for any number of axes gives the reports, constraints
    # and bounds of the code written for two, with the same steps per label
    rng = random.Random(1717)
    for trial in range(2000):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        letters = ("01", "012", "0123456789abcdef")[trial % 3]
        m = Matrix2D.from_tokens(
            [[rng.choice(letters) for _ in range(cols)] for _ in range(rows)]
        )
        density = rng.random()
        cand = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1) if rng.random() < density]
        _assert_layer_equals_the_two_axis_one(m, cand)
    families = [
        (identity(9), [(i, i) for i in range(1, 10)]),
        (diagpad(6, 9), diagpad_attractor(6, 9)),
        (diagpad(9, 6), diagpad_attractor(9, 6)),
        (diagpad(12, 16), diagpad_attractor(12, 16)),
    ]
    for m in (identity(8), ek(3), ek(4), bk(2), bk(3), staircase(8)):
        cells = list(product(range(1, m.rows + 1), range(1, m.cols + 1)))
        families.append((m, rng.sample(cells, len(cells) // 4)))
    for m, cand in families:
        _assert_layer_equals_the_two_axis_one(m, cand)


def _naive_contents(grid, shape):
    """content bytes -> corners of its occurrences, in row-major order."""
    occs = {}
    for corner in product(*(range(n - k + 1) for n, k in zip(grid.shape, shape))):
        box = tuple(slice(c, c + k) for c, k in zip(corner, shape))
        occs.setdefault(grid[box].tobytes(), []).append(corner)
    return occs


def _naive_first_miss(grid, hit, cubes):
    """The first shape in lexicographic order with a content none of whose
    occurrences holds a hit cell, and the set of such contents."""
    for shape in product(*(range(1, n + 1) for n in grid.shape)):
        if cubes and len(set(shape)) > 1:
            continue
        missed = {
            content
            for content, corners in _naive_contents(grid, shape).items()
            if not any(hit[tuple(slice(c, c + k) for c, k in zip(p, shape))].any() for p in corners)
        }
        if missed:
            return shape, missed
    return None


def _naive_coverage_masks(grid, cubes):
    """Per content, the cells of all its occurrence boxes as a bitmask (bit
    = flat cell index), reduced to the minimal ones, ordered as gamma's."""
    masks = set()
    for shape in product(*(range(1, n + 1) for n in grid.shape)):
        if cubes and len(set(shape)) > 1:
            continue
        for corners in _naive_contents(grid, shape).values():
            cells = {
                int(np.ravel_multi_index(tuple(map(sum, zip(p, off))), grid.shape))
                for p in corners
                for off in product(*map(range, shape))
            }
            masks.add(sum(1 << c for c in cells))
    ordered = sorted(masks, key=lambda s: (bin(s).count("1"), s))
    return [c for c in ordered if not any(p & c == p and p != c for p in ordered)]


def _naive_line_windows(grid):
    """(k, axis, flat corner) of the unique line windows the greedy is
    offered, sorted: those holding no unique window of the line before,
    on each axis's chain up to its first line whose windows are all unique
    (the single cell listed once, under axis 0)."""
    dims, d = grid.shape, grid.ndim
    listed = []
    for a in range(d):
        before = set()
        for k in range(1, dims[a] + 1):
            shape = tuple(k if b == a else 1 for b in range(d))
            occs = _naive_contents(grid, shape)
            unique = {corners[0] for corners in occs.values() if len(corners) == 1}
            for p in unique if k > 1 or a == 0 else ():
                q = p[:a] + (p[a] + 1,) + p[a + 1 :]
                if p not in before and q not in before:
                    listed.append((k, a, int(np.ravel_multi_index(p, dims))))
            if len(unique) == sum(map(len, occs.values())):
                break
            before = unique
    return sorted(listed)


def test_attractor_layer_on_any_number_of_axes():
    # the axis-free core against naive scans of every shape on 1 to 4 axes:
    # the first failing shape in lexicographic order with a witness whose
    # content no hit occurrence has, the constraints, and on 3 axes the line
    # windows the lower bound is offered
    rng = random.Random(4242)
    cases = [bdk(3, 2)._grid]
    for trial in range(160):
        d = 1 + trial % 4
        dims = tuple(rng.randint(1, 4) for _ in range(d))
        letters = ("01", "012", "0123")[trial % 3]
        # NdString's ids are dense, as the layer needs
        cells = [rng.choice(letters) for _ in range(int(np.prod(dims)))]
        cases.append(NdString.from_tokens(dims, cells)._grid)
    outcomes = set()
    for grid in cases:
        what = ("window ranking",) * grid.ndim
        for _ in range(3):
            hit = np.array([rng.random() < 0.3 for _ in range(grid.size)]).reshape(grid.shape)
            for cubes in (False, True):
                got = measures._first_miss(grid, hit, cubes, Ledger(), what)
                want = _naive_first_miss(grid, hit, cubes)
                outcomes.add((grid.ndim, cubes, want is None))
                if want is None:
                    assert got is None
                    continue
                shape, corner = got
                assert shape == want[0], (grid, hit, cubes)
                box = tuple(slice(c, c + k) for c, k in zip(corner, shape))
                assert grid[box].tobytes() in want[1]
        for cubes in (False, True):
            got = measures._coverage_masks(grid, cubes, Ledger(), what)
            assert got == _naive_coverage_masks(grid, cubes)
        if grid.ndim == 3:
            assert measures._unique_windows(grid, Ledger(), what) == _naive_line_windows(grid)
    assert {(d, cubes, ok) for d in range(1, 5) for cubes in (False, True) for ok in (False, True)} <= outcomes


def _naive_listed_windows(m):
    """(k1, k2, i, j), 1-based, of the unique windows the greedy is offered:
    on the k x 1 and 1 x k chains those that hold no unique window of the
    shape before, and nothing of any shape past a 1 x k shape whose windows
    are all unique or past the k x 1 one on its chain."""
    shapes = {(k, 1) for k in range(1, m.rows + 1)} | {(1, k) for k in range(1, m.cols + 1)}
    unique = {
        (k1, k2): {occs[0] for occs in naive_factors(m, k1, k2).values() if len(occs) == 1}
        for k1, k2 in shapes
    }

    def all_unique(k1, k2):
        return len(unique[k1, k2]) == (m.rows - k1 + 1) * (m.cols - k2 + 1)

    tall_end = next((k for k in range(1, m.rows + 1) if all_unique(k, 1)), m.rows)
    wide_end = next((k for k in range(1, m.cols + 1) if all_unique(1, k)), m.cols)
    listed = set()
    for k1, k2 in shapes:
        if k2 > wide_end or k2 == 1 and k1 > tall_end:
            continue
        for i, j in unique[k1, k2]:
            if k2 == 1 and k1 > 1 and unique[k1 - 1, 1] & {(i, j), (i + 1, j)}:
                continue
            if k1 == 1 and k2 > 1 and unique[1, k2 - 1] & {(i, j), (i, j + 1)}:
                continue
            listed.add((k1, k2, i, j))
    return listed


def test_lower_bound_offers_exactly_the_undominated_unique_windows():
    # dominance leaves out only windows the greedy cannot take; leaving out
    # fewer changes no bound, so the list itself is checked here
    rng = random.Random(515)
    for trial in range(300):
        letters = ("01", "012", "0123456789abcdef")[trial % 3]
        m = random_matrix(rng, 7, 7, letters)
        windows = measures._unique_windows(m._grid, Ledger(), RANKING_2D)
        listed = [
            (k, 1, *divmod(corner, m.cols)) if axis == 0 else (1, k, *divmod(corner, m.cols))
            for k, axis, corner in windows
        ]
        # in the greedy's order: smallest area, taller first, row-major
        order = [(k1 * k2, -k1, i, j, k2) for k1, k2, i, j in listed]
        assert order == sorted(order)
        got = {(k1, k2, i + 1, j + 1) for k1, k2, i, j in listed}
        assert len(got) == len(windows)
        assert got == _naive_listed_windows(m), str(m)


def test_attractor_check_and_lower_bound_steps_stay_at_most_the_recorded_ledger():
    # the ranking passes on inputs like measure-mix's, as recorded when the
    # chains got their stops; the comments give what ranking every shape
    # charged (row ranking + column ranking)
    rng = random.Random(24)
    rand16 = Matrix2D.from_tokens([[rng.choice("0123456789abcdef") for _ in range(24)] for _ in range(24)])
    rand16_cand = {(rng.randint(1, 24), rng.randint(1, 24)) for _ in range(200)}
    rng = random.Random(12)
    rand2 = Matrix2D.from_tokens([[rng.choice("01") for _ in range(12)] for _ in range(12)])
    rand2_cand = {(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)}
    diagonal = [(i, i) for i in range(1, 11)]
    checks = {
        # fails at (1, 1), which needs no pass: was 450 + 2,475
        "identity(10), its diagonal": (identity(10), diagonal, False, {}),
        "identity(10), its diagonal, squares": (identity(10), diagonal, True, {}),  # 450 + 1,155
        # fails at (2, 1) and (1, 2), and the cut ends the walk: 6,624 + 82,800
        "random 24x24 over 16 letters": (rand16, rand16_cand, False,
                                         {"row ranking": 552, "column ranking": 552}),
        "random 12x12 binary": (rand2, rand2_cand, False,
                                {"row ranking": 456, "column ranking": 797}),  # 792 + 5,148
        # an attractor: only the covered frontier applies (1,440 + 8,976)
        "diagpad(12, 16), its attractor": (diagpad(12, 16), diagpad_attractor(12, 16), False,
                                           {"row ranking": 1404, "column ranking": 7205}),
    }
    for name, (m, cand, square_only, pinned) in checks.items():
        ledger = Ledger()
        is_attractor(m, cand, square_only, budget=ledger)
        assert set(ledger.steps) <= set(pinned), name
        for label, steps in ledger.steps.items():
            assert steps <= pinned[label], (name, label, steps)
    rng = random.Random(16)
    bounds = {
        "ek(5)": (ek(5), {"row ranking": 2475, "column ranking": 320}),  # 2,480 + 320
        # the 4 x 1 and 1 x 4 windows are all unique: 1,920 + 1,920
        "random 16x16 over 16 letters": (
            Matrix2D.from_tokens([[rng.choice("0123456789abcdef") for _ in range(16)] for _ in range(16)]),
            {"row ranking": 672, "column ranking": 672},
        ),
        # 20 x 1 and 1 x 15 windows are all unique: 6,624 + 6,624
        "random 24x24 binary": (
            Matrix2D.from_tokens([[rng.choice("01") for _ in range(24)] for _ in range(24)]),
            {"row ranking": 5544, "column ranking": 6384},
        ),
    }
    for name, (m, pinned) in bounds.items():
        ledger = Ledger()
        gamma_lower_bound_unique(m, budget=ledger)
        assert set(ledger.steps) <= set(pinned), name
        for label, steps in ledger.steps.items():
            assert steps <= pinned[label], (name, label, steps)


def _assert_delta_matches_reference(m):
    for square_only in (False, True):
        for with_table in (False, True):
            got_ledger, ref_ledger = Ledger(), Ledger()
            got = delta(m, square_only, with_table, budget=got_ledger)
            want = reference_delta(m, square_only, with_table, budget=ref_ledger)
            assert repr(got) == repr(want), str(m)
            for label, steps in got_ledger.steps.items():
                assert steps <= ref_ledger.steps[label]
            if with_table:  # only saturation prunes with a table
                assert (got.value, got.argmax_shape) == (untabled.value, untabled.argmax_shape)
            else:
                untabled = got


def _one_equal_pair_inputs(rng, count):
    """Matrices with a shape s, not the largest, whose windows hold exactly
    one pair of equal ones (count W(s) - 1): the first shape of its chains
    at which saturation applies. Made by copying one window of a matrix over
    3 or 16 letters onto another place."""
    found = []
    while len(found) < count:
        rows, cols = rng.randint(1, 7), rng.randint(1, 9)
        if rows * cols < 3:
            continue
        letters = rng.choice(("012", "0123456789abcdef"))
        g = [[rng.choice(letters) for _ in range(cols)] for _ in range(rows)]
        k1, k2 = rng.randint(1, rows), rng.randint(1, cols)
        y, x = rng.randint(0, rows - k1), rng.randint(0, cols - k2)
        ty, tx = rng.randint(0, rows - k1), rng.randint(0, cols - k2)
        window = [row[x:x + k2] for row in g[y:y + k1]]
        for i, row in enumerate(window):
            g[ty + i][tx:tx + k2] = row
        m = Matrix2D.from_tokens(g)
        table = reference_delta(m, with_table=True).table
        if any(
            c == (rows - a + 1) * (cols - b + 1) - 1 and (a, b) != (rows, cols)
            for (a, b), c in table.items()
        ):
            found.append(m)
    return found


def test_pruned_delta_equals_full_enumeration():
    rng = random.Random(4041)
    for trial in range(160):
        alphabet = ("0", "01", "0123456789abcdef")[trial % 3]
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 8 == 0:
            rows = 1
        elif trial % 8 == 1:
            cols = 1
        m = Matrix2D.from_tokens(
            [[rng.choice(alphabet) for _ in range(cols)] for _ in range(rows)]
        )
        _assert_delta_matches_reference(m)
    # one pair of equal windows: the shapes past it are saturated, the shape
    # itself keeps its count in the value and the table
    for m in _one_equal_pair_inputs(rng, 80):
        _assert_delta_matches_reference(m)
    # periodic inputs, with and without one defect, and blocky ones: chains
    # that end at their first pass where every window extends in one way
    for trial in range(150):
        kind = ("periodic", "defect", "blocky")[trial % 3]
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = repetitive_matrix(rng, rows, cols, kind, ("01", "012")[trial // 3 % 2])
        _assert_delta_matches_reference(m)


def test_pruned_delta_equals_full_enumeration_on_families():
    for m in (identity(12), staircase(10), diagpad(6, 9), diagpad(9, 5), ek(3), bk(2)):
        _assert_delta_matches_reference(m)


def test_pruned_delta_keeps_ties_at_the_bound():
    # a saturated shape whose value only ties the best one so far, with a
    # smaller k1: the bound stop must be strict for it to win the tie
    for rows, k2 in (
        (("baa", "bba", "abb", "aba", "bbb", "aaa", "aab"), 3),
        (("21", "12", "20", "00", "01", "02", "22"), 2),
    ):
        res = delta(mat(*rows))
        assert repr(res) == repr(reference_delta(mat(*rows)))
        assert (res.argmax_shape.k1, res.argmax_shape.k2) == (1, k2)


def test_pruned_delta_skips_most_passes_on_random_input():
    rng = random.Random(64)
    m = Matrix2D.from_tokens([[rng.choice("01") for _ in range(64)] for _ in range(64)])
    for with_table in (False, True):  # with a table only saturation prunes
        got_ledger, ref_ledger = Ledger(), Ledger()
        got = delta(m, with_table=with_table, budget=got_ledger)
        assert got == reference_delta(m, False, with_table, budget=ref_ledger)
        assert 4 * got_ledger.used <= ref_ledger.used
    # square shapes: the bound of (k, k) already ends the chain towards it
    # (about 1/63 of the reference steps here, 1/26 with the bound of (1, k))
    got_ledger, ref_ledger = Ledger(), Ledger()
    assert delta_square(m, budget=got_ledger) == reference_delta(m, True, budget=ref_ledger)
    assert 40 * got_ledger.used <= ref_ledger.used


def test_delta_steps_stay_at_most_the_recorded_ledger():
    # the ranking passes delta makes on these inputs, as recorded when the
    # saturation at count >= W - 1 came in: a change that brings pruned
    # passes back fails here, however fast the machine is
    rng = random.Random(64)
    random64 = Matrix2D.from_tokens([[rng.choice("01") for _ in range(64)] for _ in range(64)])
    # the 1 x 4096 and 1 x 65536 strings and the 4096 x 1 column count the
    # rest of their one long chain from a suffix sort after 11 passes per
    # bit of its extent (4,656,014 and 6,288,384 steps on 1 x 4096 before)
    string = phlin(identity(64))
    column = Matrix2D.from_tokens([[t] for t in string.tokens()[0]])
    recorded = {
        "identity(64)": (identity(64), {"row ranking": 128960, "column ranking": 2970487},
                         {"row ranking": 129024, "column ranking": 4189249}),
        "phlin(identity(64))": (string, {"row ranking": 623089}, {"row ranking": 623089}),
        "its transpose": (column, {"column ranking": 623089}, {"column ranking": 623089}),
        "phlin(identity(256))": (phlin(identity(256)), {"row ranking": 13544951}, None),
        "random 64x64": (random64, {"row ranking": 44160, "column ranking": 111241},
                         {"row ranking": 76544, "column ranking": 210524}),
    }
    for name, (m, plain, tabled) in recorded.items():
        for with_table, pinned in ((False, plain), (True, tabled)):
            if pinned is None:
                continue
            ledger = Ledger()
            delta(m, with_table=with_table, budget=ledger)
            assert set(ledger.steps) <= set(pinned), name
            for label, steps in ledger.steps.items():
                assert steps <= pinned[label], (name, with_table, label, steps)


def _pass_only_delta(m, square_only, with_table, budget):
    value, shape, table = pass_only_densest_shape(m._grid, square_only, budget, RANKING_2D, with_table)
    return DeltaResult(value, FactorShape(*shape), table)


def test_delta_equals_the_pass_only_oracle_on_long_chains(monkeypatch):
    # delta, square delta and dD delta, whose long chains count the rest of
    # their shapes from one suffix sort, reproduce the delta that ranks each
    # shape by a pass, with and without a table; with no chain sorted the
    # step ledger is the same too
    sorts = []
    chain_counts = core2d._chain_counts
    monkeypatch.setattr(core2d, "_chain_counts", lambda *a: sorts.append(a) or chain_counts(*a))
    rng = random.Random(18)

    def periodic(n, p, alphabet="01"):
        tile = [rng.choice(alphabet) for _ in range(p)]
        return [tile[i % p] for i in range(n)]

    def defect(cells):
        at = rng.randrange(len(cells) // 4)  # far from the end
        return cells[:at] + ["x"] + cells[at + 1 :]

    strings = [
        [rng.choice("01") for _ in range(2000)],
        [rng.choice("0123456789abcdef") for _ in range(1500)],
        periodic(1500, 7),
        defect(periodic(1200, 5)),
        ["01"[b] for b in debruijn_bits(10)],
    ]
    grids = [Matrix2D.from_tokens([s]) for s in strings]
    for family in (identity(32), staircase(32), diagpad(32, 32)):
        grids += [phlin(family), rlin(family)]
    grids.append(rlin(diagpad(24, 40)))
    # tall grids: one long chain along the first axis on 1 or 2 lines; the
    # two columns share long suffixes, and so do the lines of the 3D grids
    string = phlin(identity(64)).tokens()[0]
    column = periodic(900, 6)
    grids += [
        Matrix2D.from_tokens([[t] for t in string]),
        Matrix2D.from_tokens([[t] for t in defect(periodic(700, 9))]),
        Matrix2D.from_tokens([list(p) for p in zip(defect(column), defect(column))]),
        Matrix2D.from_tokens([list(p) for p in zip(periodic(600, 4), defect(periodic(600, 3)))]),
    ]
    tile = periodic(24, 24)  # one period of 6 along the first axis, 2 x 2 across
    grids += [
        NdString.from_tokens((600, 2, 2), [tile[i % 6 * 4 + j] for i in range(600) for j in range(4)]),
        NdString.from_tokens((700, 2, 1), defect([tile[i % 6 * 4 + j] for i in range(700) for j in range(2)])),
        NdString.from_tokens((300, 3, 2), [rng.choice("01") for _ in range(1800)]),
    ]
    sides = set()
    for x in grids:
        what = RANKING_2D if isinstance(x, Matrix2D) else ("window ranking",) * 3
        for cubes_only, with_table in product((False, True), repeat=2):
            sorts.clear()
            ledger, pass_ledger = Ledger(), Ledger()
            got = core2d.densest_shape(x._grid, cubes_only, ledger, what, with_table)
            want = pass_only_densest_shape(x._grid, cubes_only, pass_ledger, what, with_table)
            assert repr(got) == repr(want), (x._grid.shape, cubes_only, with_table)
            if not sorts:
                assert ledger.steps == pass_ledger.steps
            sides.add((cubes_only, with_table, bool(sorts)))
            if isinstance(x, Matrix2D):
                run = delta_square if cubes_only else delta
                got = run(x, with_table=with_table, budget=Ledger())
                assert repr(got) == repr(_pass_only_delta(x, cubes_only, with_table, Ledger()))
            elif not (cubes_only or with_table):
                assert delta_nd(x) == want[0]
    # chains that switch occur, plain and with a table, as do inputs whose
    # chains never do; a square delta never switches
    assert sides == {
        (False, False, False), (False, False, True), (False, True, False), (False, True, True),
        (True, False, False), (True, True, False),
    }


def test_delta_stops_where_the_pass_only_oracle_stops(monkeypatch):
    # saturation of the neighbour chains is read once per chain; every stop
    # answer, and so the step ledger, is the oracle's, on grids of 1 to 3
    # axes (random, periodic, with a defect, blocky, families) whose chains
    # all stay on passes
    rank_windows = core2d.rank_windows

    def recording(answers):
        def walk(grid, wanted, budget, what, stop, *flags):
            def asked(axis, shape):
                answers.append((axis, shape, stop(axis, shape)))
                return answers[-1][-1]

            return rank_windows(grid, wanted, budget, what, asked, *flags)

        return walk

    rng = random.Random(77)
    grids = [m._grid for m in (identity(24), staircase(16), diagpad(10, 17), ek(4), bk(3))]
    for trial in range(90):
        d = 1 + trial % 3
        dims = tuple(rng.randint(1, (40, 14, 6)[d - 1]) for _ in range(d))
        grids.append(np.array([rng.randrange(1 + trial % 3) for _ in range(prod(dims))]).reshape(dims))
    for trial in range(60):
        kind = ("periodic", "defect", "blocky")[trial % 3]
        m = repetitive_matrix(rng, rng.randint(1, 14), rng.randint(1, 14), kind, ("01", "012")[trial // 3 % 2])
        grids.append(m._grid)
    for grid in grids:
        what = RANKING_2D if grid.ndim == 2 else ("window ranking",) * grid.ndim
        for cubes_only, with_table in product((False, True), repeat=2):
            got_answers, want_answers = [], []
            got_ledger, want_ledger = Ledger(), Ledger()
            monkeypatch.setattr(core2d, "rank_windows", recording(got_answers))
            got = core2d.densest_shape(grid, cubes_only, got_ledger, what, with_table)
            monkeypatch.setattr(core2d, "rank_windows", rank_windows)
            monkeypatch.setattr(util, "rank_windows", recording(want_answers))
            want = pass_only_densest_shape(grid, cubes_only, want_ledger, what, with_table)
            monkeypatch.setattr(util, "rank_windows", rank_windows)
            assert repr(got) == repr(want), (grid.shape, cubes_only, with_table)
            assert got_answers == want_answers
            assert got_ledger.steps == want_ledger.steps


def test_delta_of_a_long_string_stays_under_its_memory_bound():
    # the suffix sort keeps one int32 rank table per doubling level: 16
    # tables of 65,361 ids, 4.2 MB, on this 1 x 65536 string. The peak read
    # 9.1 MB; with int64 tables it read 12.5 MB. The input grid is built
    # before tracing starts
    m = phlin(identity(256))
    m._grid
    tracemalloc.start()
    try:
        res = delta(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.value, res.argmax_shape) == (2, FactorShape(1, 1))
    assert peak < 11_000_000, peak


def test_one_way_check_runs_only_behind_the_count_gate(monkeypatch):
    # the determinism check reads only the passes whose shape has no more
    # windows than the shape before it, reads every such pass of delta, and
    # none with a table or on square shapes
    events = []
    rank, check = core2d._pair_rank, core2d._one_way

    def spy_rank(a, a_range, b, b_range):
        labels, values = rank(a, a_range, b, b_range)
        events.append(("pass", values.size <= a_range))
        return labels, values

    def spy_check(values, b_range):
        answer = check(values, b_range)
        events.append(("check", answer))
        return answer

    monkeypatch.setattr(core2d, "_pair_rank", spy_rank)
    monkeypatch.setattr(core2d, "_one_way", spy_check)
    rng = random.Random(31)
    ends = 0
    for trial in range(60):
        kind = ("periodic", "defect", "blocky", "random")[trial % 4]
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if kind == "random":
            m = random_matrix(rng, rows, cols, "01")
        else:
            m = repetitive_matrix(rng, rows, cols, kind)
        for square_only, with_table in ((False, False), (True, False), (False, True)):
            events.clear()
            delta(m, square_only, with_table)
            if square_only or with_table:
                assert all(what == "pass" for what, _ in events), (str(m), square_only)
                continue
            # a check right after each gated pass, and nowhere else
            for (what, gated), after in zip(events, events[1:] + [("pass", None)]):
                assert (what == "pass" and gated) == (after[0] == "check"), str(m)
            ends += ("check", True) in events
    assert ends >= 30


def test_square_delta_ranks_the_cubes_past_a_one_way_pass():
    # rows 0101... or 1010... as the bits of a de Bruijn sequence say: each
    # cell fixes the next one along a row, so the 1 x 2 pass is one-way and
    # would end every chain. The (k, k2) shapes that would bound the cubes
    # past it are not cubes, and the 2^7 distinct 7 x 7 windows beat 1 x 1
    bits = debruijn_bits(7)
    m = Matrix2D.from_tokens([["01"[(b + j) % 2] for j in range(8)] for b in bits + bits[:6]])
    res = delta_square(m)
    assert (res.value, res.argmax_shape) == (Fraction(128, 49), FactorShape(7, 7))
    assert repr(res) == repr(reference_delta(m, True))
    assert repr(delta(m)) == repr(reference_delta(m))


def test_determinism_stop_steps_stay_at_most_the_recorded_ledger():
    # the ranking passes made with the determinism stop on inputs where it
    # ends most chains: a seeded 64 x 64 periodic matrix and the 3D de Bruijn
    # cube bdk(3, 3) (2,767,189 and 62,682 steps without it)
    rng = random.Random(3)
    tile = [[rng.choice("01") for _ in range(5)] for _ in range(3)]
    periodic = Matrix2D.from_tokens([[tile[i % 3][j % 5] for j in range(64)] for i in range(64)])
    recorded = (
        (lambda b: delta(periodic, budget=b), {"row ranking": 19520, "column ranking": 54000}),
        (lambda b: delta_nd(bdk(3, 3), b), {"window ranking": 25928}),
    )
    for run, pinned in recorded:
        ledger = Ledger()
        run(ledger)
        assert set(ledger.steps) <= set(pinned)
        for label, steps in ledger.steps.items():
            assert steps <= pinned[label], (label, steps)


def test_attractor_set_normalizes():
    a = AttractorSet.of([(2, 1), (1, 1), (2, 1)])
    assert a.positions == ((1, 1), (2, 1))
    assert len(a) == 2 and (2, 1) in a


def test_is_attractor_matches_naive():
    rng = random.Random(17)
    for _ in range(60):
        m = random_matrix(rng, 3, 4)
        cells = [
            (i, j) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1)
        ]
        k = rng.randint(1, len(cells))
        cand = AttractorSet.of(rng.sample(cells, k))
        got = bool(is_attractor(m, cand))
        assert got == naive_is_attractor(m, cand.positions), f"{m}\n{cand}"


def test_is_attractor_reports_witness():
    m = mat("01", "10")
    chk = is_attractor(m, AttractorSet.of([(1, 1)]))
    assert not chk
    assert chk.shape is not None and chk.occurrence is not None
    # the reported factor really does avoid the candidate positions
    i, j = chk.occurrence
    assert not (i <= 1 < i + chk.shape.k1 and j <= 1 < j + chk.shape.k2)


def test_gamma_exact_minimal_and_valid():
    rng = random.Random(8)
    for _ in range(25):
        m = random_matrix(rng, 3, 3)
        att = gamma_exact(m)
        assert is_attractor(m, att)
        assert len(att) == naive_gamma(m), str(m)
        # minimality: dropping any position must break it
        for drop in att.positions:
            smaller = AttractorSet.of(p for p in att.positions if p != drop)
            if smaller.positions:
                assert not is_attractor(m, smaller)


def test_gamma_constraints_equal_those_built_bit_by_bit():
    rng = random.Random(167)
    for trial in range(150):
        m = random_matrix(rng, 5, 5, ("01", "012", "0123456789abcdef")[trial % 3])
        for square_only in (False, True):
            got_ledger, ref_ledger = Ledger(), Ledger()
            got = measures._coverage_masks(m._grid, square_only, got_ledger, RANKING_2D)
            assert got == reference_coverage_masks(m, square_only, ref_ledger), str(m)
            assert got_ledger.steps == ref_ledger.steps


def test_gamma_exact_known_values():
    assert len(gamma_exact(zeros(4, 4))) == 1
    assert len(gamma_exact(identity(2))) == 3
    assert len(gamma_exact(identity(3))) == 3
    assert len(gamma_exact(identity(4))) == 4
    assert len(gamma_exact(identity(3), square_only=True)) == 2
    assert len(gamma_exact(identity(4), square_only=True)) == 2
    # square-restricted never needs more positions than unrestricted
    rng = random.Random(4)
    for _ in range(20):
        m = random_matrix(rng, 3, 3)
        assert len(gamma_exact(m, square_only=True)) <= len(gamma_exact(m))


def test_gamma_exact_cell_limit():
    raises(TooLarge, gamma_exact, zeros(5, 5), cell_limit=20)
    assert len(gamma_exact(zeros(5, 5), cell_limit=25)) == 1


def test_gamma_lower_bound():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, 3, 3)
        lb = gamma_lower_bound_unique(m)
        assert 0 <= lb <= len(gamma_exact(m)), str(m)
    # the bound is strong on the bit-count family: doubles with each level
    assert gamma_lower_bound_unique(ek(2)) >= 4
    assert gamma_lower_bound_unique(ek(3)) >= 8
    assert gamma_lower_bound_unique(ek(6)) >= 64


def test_delta_le_gamma():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, 3, 3)
        assert delta(m).value <= len(gamma_exact(m))


def test_diagpad_attractor_construction():
    for m, n in [(3, 3), (3, 4), (4, 3), (4, 6), (6, 4), (5, 5), (7, 9), (9, 7)]:
        mtx = diagpad(m, n)
        att = diagpad_attractor(m, n)
        assert is_attractor(mtx, att), (m, n)
        assert len(att) == min(m, n) + (1 if m != n else 0), (m, n)
        assert delta(mtx).value <= 2
    # the construction needs a 3x3 diagonal block to anchor on
    raises(BadParam, diagpad_attractor, 2, 5)
    raises(BadParam, diagpad_attractor, 5, 2)
