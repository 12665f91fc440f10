"""End-to-end acceptance checks.

Nine numbered criteria distill the package's contracts: pinned exact
values, attractor sizes, ordering invariants over randomized corpora,
representation round trips, direct access, separation directions,
linearization behavior, the d-dimensional embedding, and the declared
desk-scale limits.  Each criterion reports one PASS/FAIL line plus the
evidence behind it; the test suite and the ``selftest`` CLI command both
run through this module so there is a single source of truth.

Criterion 2 currently fails: it expects an attractor of size 2 for the
2x2 identity matrix, but exhaustive search shows the minimum is 3 (the
two occurrences of the symbol ``1`` lie on the main diagonal, so any
2-position set missing both diagonal cells misses that factor, and the
remaining pairs each miss one of the six distinct factors).  The failure
is reported honestly rather than patched around.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .access2d import build_index, full_scan
from .blocktree2d import build_blocktree, count_pruned
from .core2d import Matrix2D, concat_h, concat_v, factor_count
from .families import alt, bk, diagpad, ek, identity, small_instances, staircase
from .grammar2d import (
    Grammar2D,
    Horiz,
    Rule,
    RunH,
    RunV,
    Terminal,
    Vert,
    _rhs_key,
    build_bk_grammar,
    build_ek_grammar,
    build_zeros_rlslp,
    expand,
    g_exact,
)
from .linearize import (
    ek_rlin_attractor,
    onerun_certificate,
    phlin,
    rlin,
    scan,
)
from .macroscheme import b_exact, decode, from_grammar, identity_scheme
from .measures import (
    delta,
    delta_square,
    diagpad_attractor,
    gamma_exact,
    gamma_lower_bound_unique,
    is_attractor,
)
from . import multidim as nd


@dataclass(frozen=True)
class CheckResult:
    number: int
    title: str
    ok: bool
    details: tuple[str, ...]

    @property
    def line(self) -> str:
        return f"criterion {self.number} ({self.title}): " + (
            "PASS" if self.ok else "FAIL"
        )


# ---------------------------------------------------------------------------
# fixtures and corpora
# ---------------------------------------------------------------------------


def sample_slp() -> Grammar2D:
    """Size-12 plain grammar for the 4x6 matrix of alternating columns;
    exhaustive search shows no smaller plain grammar exists."""
    return Grammar2D(
        "S",
        {
            "S": Horiz("A", "Ap"),
            "A": Horiz("Ap", "Ap"),
            "Ap": Vert("B", "B"),
            "B": Vert("C", "C"),
            "C": Horiz("X", "Y"),
            "X": Terminal("0"),
            "Y": Terminal("1"),
        },
    )


def sample_rlslp() -> Grammar2D:
    """Size-8 run-length grammar for the same 4x6 matrix."""
    return Grammar2D(
        "S",
        {
            "S": RunH(3, "A"),
            "A": RunV(4, "B"),
            "B": Horiz("X", "Y"),
            "X": Terminal("0"),
            "Y": Terminal("1"),
        },
    )


def blocky_sample() -> Matrix2D:
    """The 5x4 two-letter matrix with three distinct 2x2 windows."""
    return Matrix2D.from_tokens([["a", "a", "b", "b"]] * 5)


def random_matrix(
    rng: random.Random,
    max_rows: int,
    max_cols: int,
    alphabet: str = "01",
) -> Matrix2D:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    return Matrix2D.from_tokens(
        [[rng.choice(alphabet) for _ in range(cols)] for _ in range(rows)]
    )


def random_grammar(
    rng: random.Random, allow_runs: bool = True, max_area: int = 96
) -> Grammar2D:
    """A structurally valid grammar built bottom-up (children always precede
    parents, so the result is acyclic; right-hand sides are deduplicated)."""
    rules: dict[str, Rule] = {}
    dims: dict[str, tuple[int, int]] = {}
    names: list[str] = []
    seen: set[tuple] = set()

    def add(rule: Rule, dim: tuple[int, int]) -> None:
        key = _rhs_key(rule)
        if key in seen:
            return
        seen.add(key)
        name = f"N{len(names)}"
        rules[name] = rule
        dims[name] = dim
        names.append(name)

    for tok in rng.sample("01ab", rng.randint(1, 3)):
        add(Terminal(tok), (1, 1))
    target = rng.randint(1, 10)
    for _ in range(10 * target):
        if len(names) >= target + 3:
            break
        kind = rng.choice("hhvvr" if allow_runs else "hv")
        if kind == "r":
            child = rng.choice(names)
            r, c = dims[child]
            count = rng.randint(2, 4)
            if kind == "r" and rng.random() < 0.5:
                if r * c * count <= max_area:
                    add(RunH(count, child), (r, c * count))
            elif r * c * count <= max_area:
                add(RunV(count, child), (r * count, c))
            continue
        first = rng.choice(names)
        if kind == "h":
            mates = [n for n in names if dims[n][0] == dims[first][0]]
            second = rng.choice(mates)
            r, c = dims[first][0], dims[first][1] + dims[second][1]
            if r * c <= max_area:
                add(Horiz(first, second), (r, c))
        else:
            mates = [n for n in names if dims[n][1] == dims[first][1]]
            second = rng.choice(mates)
            r, c = dims[first][0] + dims[second][0], dims[first][1]
            if r * c <= max_area:
                add(Vert(first, second), (r, c))
    axiom = max(names, key=lambda n: (dims[n][0] * dims[n][1], n))
    # keep only the rules the axiom reaches, so every grammar is fully live
    keep: set[str] = set()
    stack = [axiom]
    while stack:
        n = stack.pop()
        if n in keep:
            continue
        keep.add(n)
        stack.extend(_rhs_key(rules[n])[3])
    return Grammar2D(axiom, {n: rules[n] for n in names if n in keep})


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _expect(out: list[str], ok: bool, label: str, got: object) -> bool:
    out.append(f"{'ok' if ok else 'FAIL'}: {label} -> {got}")
    return ok


def _criterion_1(out: list[str], quick: bool, seed: int) -> bool:
    ok = True
    m = blocky_sample()
    ok &= _expect(out, factor_count(m, 2, 2) == 3, "2x2 windows of blocky sample == 3", factor_count(m, 2, 2))
    target = alt(4, 6)
    res = g_exact(target, allow_runs=False)
    ok &= _expect(
        out,
        res.size == 12 and res.optimal and expand(res.grammar) == target,
        "minimum plain grammar for alt(4,6) == 12",
        f"size={res.size} optimal={res.optimal}",
    )
    res_rl = g_exact(target, allow_runs=True)
    ok &= _expect(
        out,
        res_rl.size == 8 and res_rl.optimal and expand(res_rl.grammar) == target,
        "minimum run-length grammar for alt(4,6) == 8",
        f"size={res_rl.size} optimal={res_rl.optimal}",
    )
    p = "".join(phlin(identity(2)).tokens()[0])
    ok &= _expect(out, p == "1010", "phlin(I_2) == 1010", p)
    return ok


def _criterion_2(out: list[str], quick: bool, seed: int) -> bool:
    ok = True
    for n in (2, 3, 4):
        got = len(gamma_exact(identity(n)))
        ok &= _expect(out, got == n, f"gamma(I_{n}) == {n}", got)
    for n in (3, 4):
        got = len(gamma_exact(identity(n), square_only=True))
        ok &= _expect(out, got == 2, f"gamma_square(I_{n}) == 2", got)
    for m, n in ((4, 6), (6, 4), (5, 5)):
        mat = diagpad(m, n)
        att = diagpad_attractor(m, n)
        chk = is_attractor(mat, att)
        ok &= _expect(
            out, bool(chk), f"diagpad({m},{n}) attractor of size {len(att)}", bool(chk)
        )
        d = delta(mat).value
        ok &= _expect(out, d <= 2, f"delta(diagpad({m},{n})) <= 2", d)
    return ok


def _criterion_3(out: list[str], quick: bool, seed: int) -> bool:
    rng = random.Random(seed)
    corpus: list[tuple[str, Matrix2D]] = []
    for i in range(40 if quick else 200):
        alpha = "01" if rng.random() < 0.7 else "012"
        corpus.append((f"random-{i}", random_matrix(rng, 4, 4, alpha)))
    corpus.extend(
        (f"{spec.name}{spec.params}", m) for spec, m in small_instances(4, 4)
    )
    bad: list[str] = []
    for label, m in corpus:
        d_sq = delta_square(m).value
        d = delta(m).value
        gam = len(gamma_exact(m))
        gam_sq = len(gamma_exact(m, square_only=True))
        if not (d_sq <= d <= gam and gam_sq <= gam):
            bad.append(f"{label}: measures {d_sq},{d},{gam},{gam_sq}")
        g_plain = g_exact(m, allow_runs=False)
        g_rl = g_exact(m, allow_runs=True)
        b = b_exact(m, cell_limit=16)
        if not (g_plain.optimal and g_rl.optimal):
            bad.append(f"{label}: solver hit the work limit")
        if not b.size <= g_rl.size <= g_plain.size:
            bad.append(f"{label}: sizes b={b.size} g_rl={g_rl.size} g={g_plain.size}")
    return _expect(
        out,
        not bad,
        f"orderings on {len(corpus)} matrices",
        bad[:5] if bad else "zero violations",
    )


def _criterion_4(out: list[str], quick: bool, seed: int) -> bool:
    rng = random.Random(seed)
    ok = True
    for k in range(1, 7 if quick else 11):
        ok &= expand(build_ek_grammar(k)) == ek(k)
    _expect(out, ok, "bit-count grammar expansions k <= 10", ok)
    for k in range(1, 4 if quick else 5):
        good = expand(build_bk_grammar(k)) == bk(k)
        ok &= _expect(out, good, f"de Bruijn product grammar k={k}", good)
    fixtures = [sample_slp(), sample_rlslp(), build_ek_grammar(3), build_zeros_rlslp(5)]
    grammars = fixtures + [
        random_grammar(rng) for _ in range(25 if quick else 100)
    ]
    bad = 0
    for g in grammars:
        s = from_grammar(g)
        if decode(s) != expand(g) or len(s.phrases) > g.size:
            bad += 1
    ok &= _expect(
        out, bad == 0, f"scheme-from-grammar round trip on {len(grammars)} grammars", f"{bad} failures"
    )
    for n in (3, 64) if quick else (3, 64, 1024):
        s = identity_scheme(n)
        good = s.size == 6 and decode(s) == identity(n)
        ok &= _expect(out, good, f"6-phrase identity scheme n={n}", f"size={s.size}")
    return ok


def _criterion_5(out: list[str], quick: bool, seed: int) -> bool:
    ok = True
    big = 6 if quick else 10
    cases = [
        (f"bit-count k={big}", build_ek_grammar(big)),
        ("zeros run-length n=64", build_zeros_rlslp(64)),
        ("de Bruijn product k=3", build_bk_grammar(3)),
        ("plain fixture", sample_slp()),
        ("run-length fixture", sample_rlslp()),
    ]
    for label, g in cases:
        idx = build_index(g)
        rep = full_scan(idx)
        good = rep.ok and rep.max_hops <= rep.hop_bound
        ok &= _expect(
            out,
            good,
            f"access == expansion for {label}",
            f"matches={rep.matches} max_hops={rep.max_hops} bound={rep.hop_bound}",
        )
    return ok


def _criterion_6(out: list[str], quick: bool, seed: int) -> bool:
    ok = True
    for k in range(2, 7):
        d = delta(ek(k)).value
        size = build_ek_grammar(k).size
        good = d >= Fraction(2**k, k) and size <= 10 * k
        ok &= _expect(out, good, f"delta(ek({k})) >= 2^{k}/{k} with grammar <= {10*k}", f"delta={d} size={size}")
    for k in (2, 3, 4):
        m = bk(k)
        windows = (m.rows - k + 1) ** 2
        cnt = factor_count(m, k, k)
        ok &= _expect(out, cnt == windows, f"all {k}x{k} windows of bk({k}) distinct", f"{cnt}/{windows}")
    bt = build_blocktree(bk(3), 2, pad_to=16)
    pruned = count_pruned(bt, min_side=3, in_region_only=True)
    ok &= _expect(out, pruned == 0, "no pruned side>=3 blocks in bk(3) block tree", pruned)
    dsq = delta_square(bk(3)).value
    ok &= _expect(out, dsq >= Fraction(64, 9), "delta_square(bk(3)) >= 64/9", dsq)
    return ok


def _criterion_7(out: list[str], quick: bool, seed: int) -> bool:
    ok = True
    for n in (8, 16, 32):
        d2 = delta(staircase(n)).value
        d1 = delta(rlin(staircase(n))).value
        good = d2 <= 6 and d1 >= Fraction(n - 1, 2)
        ok &= _expect(out, good, f"staircase({n}) flattening blow-up", f"2d={d2} 1d={d1}")
    top = 6 if quick else 8
    for k in range(1, top + 1):
        att = ek_rlin_attractor(k)
        chk = is_attractor(rlin(ek(k)), att)
        lb = gamma_lower_bound_unique(ek(k))
        good = len(att) == 3 * k - 1 and bool(chk) and lb >= 2**k
        ok &= _expect(
            out,
            good,
            f"flattened ek({k}): attractor 3k-1 vs 2d lower bound",
            f"attr={len(att)} valid={bool(chk)} lb={lb}",
        )
    prev: str | None = None
    for k in range(1, 5 if quick else 7):
        m = identity(2**k)
        same = scan(m, "rs") == scan(m, "ds")
        p = "".join(phlin(m).tokens()[0])
        rec = prev is None or p == prev + "0" * 4 ** (k - 1) + prev + "0" * 4 ** (k - 1)
        cert = onerun_certificate(phlin(m), k)
        good = same and rec and cert
        ok &= _expect(out, good, f"identity scan invariants k={k}", f"rs==ds {same}, recurrence {rec}, gaps {cert}")
        prev = p
    return ok


def _criterion_8(out: list[str], quick: bool, seed: int) -> bool:
    rng = random.Random(seed)
    ok = True
    bad = 0
    trials = 15 if quick else 50
    for _ in range(trials):
        a = random_matrix(rng, 5, 5, "ab")
        b = Matrix2D.from_tokens(
            [[rng.choice("ab") for _ in range(a.cols)] for _ in range(a.rows)]
        )
        if nd.to_2d(nd.concat_axis(nd.to_nd(a), nd.to_nd(b), 2)) != concat_h(a, b):
            bad += 1
        if nd.to_2d(nd.concat_axis(nd.to_nd(a), nd.to_nd(b), 1)) != concat_v(a, b):
            bad += 1
        if nd.delta_nd(nd.to_nd(a)) != delta(a).value:
            bad += 1
    for _ in range(5):
        g = random_grammar(rng)
        if nd.to_2d(nd.expand_nd(nd.grammar_to_nd(g))) != expand(g):
            bad += 1
    ok &= _expect(out, bad == 0, f"2d operations == their liftings ({trials} trials)", f"{bad} mismatches")
    cube = nd.bdk(3, 2)
    cnt = nd.factor_count_nd(cube, (2, 2, 2))
    ok &= _expect(out, cnt == 64, "all 2x2x2 subcubes of bdk(3,2) distinct", f"{cnt}/64")
    same = nd.expand_nd(nd.build_bdk_grammar(3, 2)) == cube
    ok &= _expect(out, same, "grammar expansion == bdk(3,2)", same)
    return ok


def _criterion_9(out: list[str], quick: bool, seed: int) -> bool:
    ok = True
    for label, m in (
        ("alt(4,6)", alt(4, 6)),
        ("identity(4)", identity(4)),
        ("bk(1)", bk(1)),
    ):
        res = g_exact(m, allow_runs=False)
        need = max(1, (m.area - 1).bit_length())
        got = len(res.grammar.rules)
        good = res.optimal and got >= need
        ok &= _expect(
            out, good, f"plain grammar variables >= ceil(log2 N) on {label}", f"{got} >= {need}"
        )
    out.append(
        "note: asymptotic constants are out of desk-scale reach by design; "
        "growth directions are covered by criteria 6 and 7"
    )
    return ok


_CRITERIA: tuple[tuple[str, object], ...] = (
    ("pinned exact values", _criterion_1),
    ("attractor suite", _criterion_2),
    ("measure ordering invariants", _criterion_3),
    ("grammar and scheme round trips", _criterion_4),
    ("direct access", _criterion_5),
    ("separation directions", _criterion_6),
    ("linearization suite", _criterion_7),
    ("d-dimensional embedding", _criterion_8),
    ("declared desk-scale limits", _criterion_9),
)


def run_criterion(number: int, quick: bool = False, seed: int = 0) -> CheckResult:
    """Run one criterion (1-based); exceptions are reported as failures."""
    title, func = _CRITERIA[number - 1]
    details: list[str] = []
    try:
        ok = bool(func(details, quick, seed))
    except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
        details.append(f"raised {type(exc).__name__}: {exc}")
        ok = False
    return CheckResult(number, title, ok, tuple(details))


def run_all(
    quick: bool = False, seed: int = 0
) -> list[CheckResult]:
    return [
        run_criterion(i, quick=quick, seed=seed)
        for i in range(1, len(_CRITERIA) + 1)
    ]
