import random
from fractions import Fraction

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
    staircase,
    zeros,
)
from repet2d import measures
from repet2d.errors import BadParam, ShapeTooLarge, TooLarge

from util import (
    Ledger,
    mat,
    naive_delta,
    naive_delta_1d,
    naive_factors,
    naive_gamma,
    naive_is_attractor,
    random_matrix,
    raises,
    reference_coverage_masks,
    reference_delta,
    reference_gamma_lower_bound_unique,
    reference_is_attractor,
    reference_shape_labels,
    substring_complexity,
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
        windows = measures._unique_windows(m, Ledger())
        assert windows == sorted(windows)
        got = {(-neg_k1, k2, i + 1, j + 1) for _, neg_k1, i, j, k2 in windows}
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
    recorded = {
        "identity(64)": (identity(64), {"row ranking": 128960, "column ranking": 2970487},
                         {"row ranking": 129024, "column ranking": 4189249}),
        "phlin(identity(64))": (phlin(identity(64)), {"row ranking": 4656014},
                                {"row ranking": 6288384}),
        "random 64x64": (random64, {"row ranking": 44160, "column ranking": 111241},
                         {"row ranking": 76544, "column ranking": 210524}),
    }
    for name, (m, plain, tabled) in recorded.items():
        for with_table, pinned in ((False, plain), (True, tabled)):
            ledger = Ledger()
            delta(m, with_table=with_table, budget=ledger)
            assert set(ledger.steps) <= set(pinned), name
            for label, steps in ledger.steps.items():
                assert steps <= pinned[label], (name, with_table, label, steps)


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
            got = measures._coverage_masks(m, square_only, got_ledger)
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
