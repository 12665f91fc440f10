"""Shared test helpers: naive oracles recomputed with dumb nested loops.

Everything here avoids the library's numpy ranking machinery on purpose,
so the fast implementations are checked against independent code. The one
exception is ``reference_shape_labels``: the former 2D-only window ranking,
kept as the oracle that the d-axis ranking must reproduce id for id.
"""

from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import numpy as np

from repet2d import Matrix2D
from repet2d.budget import WorkBudget, ensure_budget


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
