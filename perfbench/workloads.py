"""The four workloads. Each ``build_<name>(rng, workdir)`` generates its inputs
from the seeded ``rng`` and returns the job list of one pass of the mix.

The structure of every mix (which functions, which input kinds and sizes) is
fixed; the seed changes only the contents of the random inputs, so the work
per pass stays comparable from seed to seed.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import repet2d as R
from repet2d import multidim as nd
from repet2d.families import debruijn_bits
from repet2d.grammar2d import Horiz, RunH, RunV, Terminal, Vert

import oracles as O
from harness import Job, make_ledger_class

RULES = {"Terminal": Terminal, "Horiz": Horiz, "Vert": Vert, "RunH": RunH, "RunV": RunV}
ALPHA2 = "01"
ALPHA3 = "012"
ALPHA16 = "0123456789abcdef"

# g_exact jobs use this work limit so that the larger inputs stop early
# (optimal=False) and every job's cost stays bounded.
G_WORK_LIMIT = 1000
# solve-exact draws each random case this many times.
DRAWS = 2


Ledger = make_ledger_class(R.WorkBudget)


# ---------------------------------------------------------------------------
# canonical text of outputs, for digests
# ---------------------------------------------------------------------------


def canon(obj) -> str:
    if isinstance(obj, (R.Matrix2D, nd.NdString)):
        shape = (obj.rows, obj.cols) if isinstance(obj, R.Matrix2D) else obj.dims
        return f"{type(obj).__name__}{shape}{obj.alphabet}:{O.digest(repr(obj.cells))}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canon(o) for o in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}={canon(v)}" for k, v in obj.items()) + "}"
    return repr(obj)


def digest(obj) -> str:
    return O.digest(canon(obj))


def props(kind: str, shape: str, alphabet: int) -> dict:
    """Input properties counted in the per-run shares."""
    return {"input": kind, "shape": shape, "alphabet": alphabet}


def matrix_props(m, kind: str = "random", shape: str | None = None) -> dict:
    if isinstance(m, nd.NdString):
        return props(kind, shape or f"{m.ndim}d", len(m.alphabet))
    return props(kind, shape or ("1-row" if m.rows == 1 else "2d"), len(m.alphabet))


def grid_props(grid: list[list[str]], kind: str) -> dict:
    return props(kind, "1-row" if len(grid) == 1 else "2d", len({t for r in grid for t in r}))


def rand_grid(rng, rows: int, cols: int, alphabet: str) -> list[list[str]]:
    return [[rng.choice(alphabet) for _ in range(cols)] for _ in range(rows)]


def periodic_grid(rng, rows, cols, tile_rows, tile_cols) -> list[list[str]]:
    tile = rand_grid(rng, tile_rows, tile_cols, ALPHA2)
    return [[tile[i % tile_rows][j % tile_cols] for j in range(cols)] for i in range(rows)]


def blocky_grid(rng, rows, cols, block, alphabet=ALPHA3) -> list[list[str]]:
    small = rand_grid(rng, -(-rows // block), -(-cols // block), alphabet)
    return [[small[i // block][j // block] for j in range(cols)] for i in range(rows)]


def ok_if(cond: bool, message: str) -> str | None:
    return None if cond else message


# ---------------------------------------------------------------------------
# measure-mix
# ---------------------------------------------------------------------------

NAIVE_AREA = 160  # naive window enumeration only up to this many cells


def build_measure_mix(rng, workdir: Path) -> list[Job]:
    jobs: list[Job] = []

    def mat(grid):
        return R.Matrix2D.from_tokens(grid)

    def delta_job(name, m, kind, fixed, square=False, baseline=None, linearize=None):
        fname = "measures.delta_square" if square else "measures.delta"
        fn = R.delta_square if square else R.delta

        def run(ctx):
            x = m
            if linearize is not None:
                x = ctx.call(f"linearize.{linearize.__name__}", linearize, m)
            return (x, ctx.call(fname, fn, x)) if linearize else ctx.call(fname, fn, x)

        def check(out):
            x, res = out if linearize else (m, out)
            if linearize is R.rlin:
                flat = [t for row in m.tokens() for t in row]
                if list(x.tokens()[0]) != flat:
                    return "rlin is not the row-major flattening"
            if linearize is R.phlin and sorted(x.tokens()[0]) != sorted(
                t for row in m.tokens() for t in row
            ):
                return "phlin lost or invented cells"
            if res.value < len(x.alphabet):
                return "delta below the alphabet size"
            if x.area <= NAIVE_AREA:
                want = O.delta(O.grid_of(x), square)
                got = (res.value, (res.argmax_shape.k1, res.argmax_shape.k2))
                return ok_if(got == want, f"delta {got} != naive {want}")
            return None

        shape = "1-row" if linearize is not None or m.rows == 1 else None
        jobs.append(Job(name, run, check, digest, fixed, matrix_props(m, kind, shape), baseline))

    def factor_job(name, m, k1, k2, kind):
        def run(ctx):
            return ctx.call("core2d.factor_count", R.factor_count, m, k1, k2)

        def check(out):
            return ok_if(out == O.window_count(O.grid_of(m), k1, k2), "factor_count != naive")

        jobs.append(Job(name, run, check, digest, False, matrix_props(m, kind)))

    def attractor_job(name, m, positions, kind, fixed):
        def run(ctx):
            return ctx.call("measures.is_attractor", R.is_attractor, m, positions)

        def check(out):
            if m.area > NAIVE_AREA:
                return None
            want = O.is_attractor(O.grid_of(m), positions)
            return ok_if(bool(out) == want, f"is_attractor {bool(out)} != naive {want}")

        jobs.append(Job(name, run, check, digest, fixed, matrix_props(m, kind)))

    def lower_bound_job(name, m, kind, fixed):
        def run(ctx):
            return ctx.call(
                "measures.gamma_lower_bound_unique", R.gamma_lower_bound_unique, m
            )

        def check(out):
            return ok_if(1 <= out <= m.area, f"gamma lower bound {out} out of range")

        jobs.append(Job(name, run, check, digest, fixed, matrix_props(m, kind)))

    def nd_job(name, x, kind, fixed):
        def run(ctx):
            return ctx.call("multidim.delta_nd", nd.delta_nd, x)

        def check(out):
            if x.area > 216:
                return ok_if(out >= len(x.alphabet), "delta_nd below the alphabet size")
            return ok_if(out == O.nd_delta(x), "delta_nd != naive")

        jobs.append(Job(name, run, check, digest, fixed, matrix_props(x, kind)))

    # ROADMAP item 1 baselines
    delta_job("baseline.delta_random64", mat(rand_grid(rng, 64, 64, ALPHA2)), "random", False,
              baseline="delta_random64")
    delta_job("baseline.delta_random128", mat(rand_grid(rng, 128, 128, ALPHA2)), "random", False,
              baseline="delta_random128")
    delta_job("baseline.delta_identity64", R.identity(64), "repetitive", True,
              baseline="delta_identity64")
    delta_job("baseline.delta_phlin_identity64", R.phlin(R.identity(64)), "repetitive", True,
              baseline="delta_phlin_identity64")

    # random inputs over 2 and 16 letters
    for n in (8, 16, 32, 48):
        delta_job(f"delta.rand2-{n}", mat(rand_grid(rng, n, n, ALPHA2)), "random", False)
    for n in (10, 16, 32, 48):
        delta_job(f"delta.rand16-{n}", mat(rand_grid(rng, n, n, ALPHA16)), "random", False)
    delta_job("delta_square.rand2-12", mat(rand_grid(rng, 12, 12, ALPHA2)), "random", False, square=True)
    delta_job("delta_square.rand2-32", mat(rand_grid(rng, 32, 32, ALPHA2)), "random", False, square=True)
    delta_job("delta_square.rand16-64", mat(rand_grid(rng, 64, 64, ALPHA16)), "random", False, square=True)
    factor_job("factor_count.rand2-64.3x3", mat(rand_grid(rng, 64, 64, ALPHA2)), 3, 3, "random")
    factor_job("factor_count.rand16-48.2x5", mat(rand_grid(rng, 48, 48, ALPHA16)), 2, 5, "random")
    factor_job("factor_count.rand2-96.8x8", mat(rand_grid(rng, 96, 96, ALPHA2)), 8, 8, "random")

    # periodic and blocky inputs
    delta_job("delta.periodic-64", mat(periodic_grid(rng, 64, 64, 3, 5)), "repetitive", False)
    delta_job("delta.periodic-32x48", mat(periodic_grid(rng, 32, 48, 4, 6)), "repetitive", False)
    delta_job("delta.blocky-64x96", mat(blocky_grid(rng, 64, 96, 8)), "repetitive", False)
    delta_job("delta.blocky-48", mat(blocky_grid(rng, 48, 48, 6)), "repetitive", False)
    delta_job("delta.blocky-12", mat(blocky_grid(rng, 12, 12, 3)), "repetitive", False)
    factor_job("factor_count.blocky-64.4x4", mat(blocky_grid(rng, 64, 64, 8)), 4, 4, "repetitive")

    # families
    delta_job("delta.identity-32", R.identity(32), "repetitive", True)
    delta_job("delta.staircase-32", R.staircase(32), "repetitive", True)
    delta_job("delta.diagpad-24x40", R.diagpad(24, 40), "repetitive", True)
    delta_job("delta.ek-6", R.ek(6), "repetitive", True)
    delta_job("delta.bk-3", R.bk(3), "repetitive", True)
    delta_job("delta.bk-4", R.bk(4), "repetitive", True)
    delta_job("delta_square.ek-5", R.ek(5), "repetitive", True, square=True)
    delta_job("delta_square.staircase-16", R.staircase(16), "repetitive", True, square=True)

    # 1 x N strings from rlin and phlin
    delta_job("delta.rlin-rand2-24", mat(rand_grid(rng, 24, 24, ALPHA2)), "random", False,
              linearize=R.rlin)
    delta_job("delta.rlin-rand16-12", mat(rand_grid(rng, 12, 12, ALPHA16)), "random", False,
              linearize=R.rlin)
    delta_job("delta.rlin-ek-5", R.ek(5), "repetitive", True, linearize=R.rlin)
    delta_job("delta.phlin-identity-32", R.identity(32), "repetitive", True, linearize=R.phlin)
    delta_job("delta.phlin-rand2-8", mat(rand_grid(rng, 8, 8, ALPHA2)), "random", False,
              linearize=R.phlin)
    delta_job("delta.string-rand2-96", mat(rand_grid(rng, 1, 96, ALPHA2)), "random", False)

    # tall and wide shapes
    delta_job("delta.tall-rand2-96x16", mat(rand_grid(rng, 96, 16, ALPHA2)), "random", False)
    delta_job("delta.wide-rand2-16x96", mat(rand_grid(rng, 16, 96, ALPHA2)), "random", False)
    delta_job("delta_square.tall-rand16-80x20", mat(rand_grid(rng, 80, 20, ALPHA16)), "random", False,
              square=True)
    delta_job("delta.wide-rand16-4x40", mat(rand_grid(rng, 4, 40, ALPHA16)), "random", False)

    # attractor checks and unique-factor lower bounds
    small = mat(rand_grid(rng, 12, 12, ALPHA2))
    attractor_job("is_attractor.rand2-12", small,
                  sorted({(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)}), "random", False)
    attractor_job("is_attractor.diagpad-12x16", R.diagpad(12, 16),
                  R.diagpad_attractor(12, 16).positions, "repetitive", True)
    attractor_job("is_attractor.identity-10", R.identity(10),
                  [(i, i) for i in range(1, 11)], "repetitive", True)
    mid = mat(rand_grid(rng, 24, 24, ALPHA16))
    attractor_job("is_attractor.rand16-24", mid,
                  sorted({(rng.randint(1, 24), rng.randint(1, 24)) for _ in range(200)}), "random", False)
    lower_bound_job("gamma_lb.rand2-24", mat(rand_grid(rng, 24, 24, ALPHA2)), "random", False)
    lower_bound_job("gamma_lb.rand16-16", mat(rand_grid(rng, 16, 16, ALPHA16)), "random", False)
    lower_bound_job("gamma_lb.staircase-24", R.staircase(24), "repetitive", True)
    lower_bound_job("gamma_lb.diagpad-16x24", R.diagpad(16, 24), "repetitive", True)
    lower_bound_job("gamma_lb.ek-5", R.ek(5), "repetitive", True)

    # d-dimensional cubes
    nd_job("delta_nd.bdk-3-2", nd.bdk(3, 2), "repetitive", True)
    nd_job("delta_nd.bdk-2-3", nd.bdk(2, 3), "repetitive", True)
    nd_job("delta_nd.bdk-3-3", nd.bdk(3, 3), "repetitive", True)
    cube = rand_grid(rng, 1, 216, ALPHA2)[0]
    nd_job("delta_nd.rand2-6x6x6", nd.NdString.from_tokens((6, 6, 6), cube), "random", False)
    hyper = rand_grid(rng, 1, 81, ALPHA3)[0]
    nd_job("delta_nd.rand3-3x3x3x3", nd.NdString.from_tokens((3, 3, 3, 3), hyper), "random", False)
    nd_job("delta_nd.lift-rand2-12", nd.to_nd(mat(rand_grid(rng, 12, 12, ALPHA2))), "random", False)
    return jobs


# ---------------------------------------------------------------------------
# represent-mix
# ---------------------------------------------------------------------------


def random_grammar(rng, target_rules: int = 14, max_area: int = 256, runs: bool = True):
    """A valid grammar built bottom-up: children always precede parents and
    right-hand sides are never repeated. Only rules the axiom reaches stay."""
    rules: dict = {}
    dims: dict[str, tuple[int, int]] = {}
    seen: set = set()

    def add(rule, dim) -> None:
        key = repr(rule)
        if key in seen or dim[0] * dim[1] > max_area:
            return
        seen.add(key)
        name = f"N{len(rules)}"
        rules[name] = rule
        dims[name] = dim

    for tok in rng.sample("01ab", 3):
        add(Terminal(tok), (1, 1))
    for _ in range(40 * target_rules):
        if len(rules) >= target_rules:
            break
        names = list(rules)
        kind = rng.choice("hhvvr" if runs else "hv")
        first = rng.choice(names)
        r, c = dims[first]
        if kind == "r":
            count = rng.randint(2, 4)
            if rng.random() < 0.5:
                add(RunH(count, first), (r, c * count))
            else:
                add(RunV(count, first), (r * count, c))
        elif kind == "h":
            second = rng.choice([n for n in names if dims[n][0] == r])
            add(Horiz(first, second), (r, c + dims[second][1]))
        else:
            second = rng.choice([n for n in names if dims[n][1] == c])
            add(Vert(first, second), (r + dims[second][0], c))
    axiom = max(rules, key=lambda n: (dims[n][0] * dims[n][1], n))
    keep: set[str] = set()
    stack = [axiom]
    while stack:
        name = stack.pop()
        if name not in keep:
            keep.add(name)
            stack.extend(O.children(rules[name], RULES))
    return R.Grammar2D(axiom, {n: rules[n] for n in rules if n in keep})


def bdk_cube(d: int, k: int) -> nd.NdString:
    """The de Bruijn cube built cell by cell, independent of the grammar."""
    bits = debruijn_bits(k)
    seq = bits + bits[: k - 1]
    n = len(seq)
    cells = []
    for flat in range(n**d):
        value = 0
        rest = flat
        coords = []
        for _ in range(d):
            coords.append(rest % n)
            rest //= n
        for c in reversed(coords):
            value = value * 2 + seq[c]
        cells.append(str(value))
    return nd.NdString.from_tokens((n,) * d, cells)


def build_represent_mix(rng, workdir: Path) -> list[Job]:
    jobs: list[Job] = []

    def add(name, run, check, out_fixed, p, baseline=None):
        jobs.append(Job(name, run, check, digest, out_fixed, p, baseline))

    # ROADMAP item 1 baseline: Matrix2D construction from tokens
    big = rand_grid(rng, 512, 512, ALPHA2)
    for label, grid, base in (
        ("baseline.from_tokens_512", big, "from_tokens_512"),
        ("from_tokens.rand16-128", rand_grid(rng, 128, 128, ALPHA16), None),
        ("from_tokens.rand2-64", rand_grid(rng, 64, 64, ALPHA2), None),
    ):
        want = tuple(tuple(r) for r in grid)

        def run(ctx, grid=grid):
            return ctx.call("core2d.from_tokens", R.Matrix2D.from_tokens, grid)

        def check(out, want=want):
            return ok_if(out.tokens() == want, "from_tokens changed the tokens")

        add(label, run, check, False, grid_props(grid, "random"), base)

    grammars = [(f"ek-{k}", R.build_ek_grammar(k), True) for k in (4, 7, 10)]
    grammars += [(f"bk-{k}", R.build_bk_grammar(k), True) for k in (1, 2, 3)]
    grammars += [(f"zeros-{n}", R.build_zeros_rlslp(n), True) for n in (16, 64)]
    grammars += [(f"random-{i}", random_grammar(rng), False) for i in range(6)]
    for tag, g, fixed in grammars:
        grid = O.expand_grammar(g, RULES)
        rows, cols = len(grid), len(grid[0])
        hop_limit = (rows * cols).bit_length() - 1
        index = R.build_index(g)
        scheme = R.from_grammar(g)
        queries = [(rng.randint(1, rows), rng.randint(1, cols)) for _ in range(64)]
        p = grid_props(grid, "repetitive")

        def v_run(ctx, g=g):
            return ctx.call("grammar2d.validate_grammar", R.validate_grammar, g)

        def v_check(out, rows=rows, cols=cols):
            return ok_if((out.rows, out.cols) == (rows, cols), "validate_grammar dims wrong")

        def e_run(ctx, g=g):
            return ctx.call("grammar2d.expand", R.expand, g)

        def e_check(out, grid=grid):
            return ok_if(O.grid_of(out) == grid, "expand differs from the oracle expansion")

        def i_run(ctx, g=g):
            return ctx.call("access2d.build_index", R.build_index, g)

        def i_check(out, rows=rows, cols=cols):
            return ok_if((out.rows, out.cols) == (rows, cols), "index dims wrong")

        def a_run(ctx, index=index, queries=queries):
            return [ctx.call("access2d.access", R.access, index, y, x) for y, x in queries]

        def a_check(out, grid=grid, queries=queries, hop_limit=hop_limit):
            for (y, x), (symbol, hops) in zip(queries, out):
                if symbol != grid[y - 1][x - 1]:
                    return f"access({y},{x}) = {symbol!r}, expansion has {grid[y - 1][x - 1]!r}"
                if hops > hop_limit:
                    return f"access({y},{x}) took {hops} hops > {hop_limit}"
            return None

        def s_run(ctx, index=index):
            return ctx.call("access2d.full_scan", R.full_scan, index)

        def s_check(out):
            return ok_if(out.ok and out.matches, f"full_scan failed: {out}")

        def f_run(ctx, g=g):
            return ctx.call("macroscheme.from_grammar", R.from_grammar, g)

        def f_check(out, grid=grid, g=g):
            if out.size > g.size:
                return "scheme larger than its grammar"
            return ok_if(O.decode_scheme(out) == grid, "from_grammar scheme decodes wrongly")

        def c_run(ctx, scheme=scheme):
            return ctx.call("macroscheme.validate_scheme", R.validate_scheme, scheme)

        def c_check(out):
            return ok_if(out.ok, f"validate_scheme rejected a valid scheme: {out}")

        def d_run(ctx, scheme=scheme):
            return ctx.call("macroscheme.decode", R.decode, scheme)

        def d_check(out, grid=grid):
            return ok_if(O.grid_of(out) == grid, "decode differs from the source matrix")

        base = "full_scan_ek10" if tag == "ek-10" else None
        add(f"validate_grammar.{tag}", v_run, v_check, fixed, p)
        add(f"expand.{tag}", e_run, e_check, fixed, p)
        add(f"build_index.{tag}", i_run, i_check, fixed, p)
        add(f"access.{tag}.q64", a_run, a_check, False, p)
        add(("baseline." if base else "") + f"full_scan.{tag}", s_run, s_check, fixed, p, base)
        add(f"from_grammar.{tag}", f_run, f_check, fixed, p)
        add(f"validate_scheme.{tag}", c_run, c_check, fixed, p)
        add(f"decode.{tag}", d_run, d_check, fixed, p)

    for d, k in ((2, 2), (3, 2), (2, 3)):
        g = nd.build_bdk_grammar(d, k)
        cube = bdk_cube(d, k)
        p = matrix_props(cube, "repetitive")

        def vn_run(ctx, g=g):
            return ctx.call("multidim.validate_nd", nd.validate_nd, g)

        def vn_check(out, cube=cube):
            return ok_if(out.dims == cube.dims, "validate_nd dims wrong")

        def en_run(ctx, g=g):
            return ctx.call("multidim.expand_nd", nd.expand_nd, g)

        def en_check(out, cube=cube):
            return ok_if(out == cube, "expand_nd differs from the de Bruijn cube")

        add(f"validate_nd.bdk-{d}-{k}", vn_run, vn_check, True, p)
        add(f"expand_nd.bdk-{d}-{k}", en_run, en_check, True, p)

    for n in (3, 64, 256, 1024):
        want = tuple(1 if i == j else 0 for i in range(n) for j in range(n))

        def id_run(ctx, n=n):
            scheme = ctx.call("macroscheme.identity_scheme", R.identity_scheme, n)
            return ctx.call("macroscheme.decode", R.decode, scheme)

        def id_check(out, n=n, want=want):
            good = (out.rows, out.cols, out.alphabet) == (n, n, ("0", "1")) and out.cells == want
            return ok_if(good, "decode(identity_scheme) is not the identity")

        base = "decode_identity_scheme_1024" if n == 1024 else None
        name = f"decode.identity_scheme-{n}"
        add(("baseline." if base else "") + name, id_run, id_check, True,
            props("repetitive", "2d", 2), base)

    for tag, m, kind, fixed in (
        ("rand2-32", R.Matrix2D.from_tokens(rand_grid(rng, 32, 32, ALPHA2)), "random", False),
        ("blocky-64", R.Matrix2D.from_tokens(blocky_grid(rng, 64, 64, 8)), "repetitive", False),
        ("ek-5", R.ek(5), "repetitive", True),
        ("identity-32", R.identity(32), "repetitive", True),
        ("bk-3", R.bk(3), "repetitive", True),
    ):
        def b_run(ctx, m=m):
            return ctx.call("blocktree2d.build_blocktree", R.build_blocktree, m)

        def b_check(out, m=m):
            return ok_if(O.blocktree_grid(out) == O.grid_of(m), "block tree does not rebuild its matrix")

        add(f"blocktree.{tag}", b_run, b_check, fixed, matrix_props(m, kind))

    def round_trip(name, fmt_name, fmt, parse_name, parse, obj, p, fixed):
        def run(ctx):
            text = ctx.call(fmt_name, fmt, obj)
            return text, ctx.call(parse_name, parse, text)

        def check(out):
            return ok_if(out[1] == obj, f"{parse_name}({fmt_name}(x)) != x")

        add(name, run, check, fixed, p)

    m64 = R.Matrix2D.from_tokens(rand_grid(rng, 64, 64, ALPHA16))
    hashy = R.Matrix2D.from_tokens(rand_grid(rng, 8, 8, "#ab"))
    for name, obj, p, fixed in (
        ("roundtrip.matrix.rand16-64", m64, matrix_props(m64), False),
        ("roundtrip.matrix.hash-8", hashy, matrix_props(hashy), False),
    ):
        round_trip(name, "core2d.format_matrix", R.format_matrix, "core2d.parse_matrix",
                   R.parse_matrix, obj, p, fixed)
    for name, g, fixed in (
        ("roundtrip.grammar.ek-10", R.build_ek_grammar(10), True),
        ("roundtrip.grammar.zeros-64", R.build_zeros_rlslp(64), True),
        ("roundtrip.grammar.random", random_grammar(rng), False),
    ):
        round_trip(name, "grammar2d.format_grammar", R.format_grammar, "grammar2d.parse_grammar",
                   R.parse_grammar, g, props("repetitive", "grammar", 0), fixed)
    for name, s, fixed in (
        ("roundtrip.scheme.identity-64", R.identity_scheme(64), True),
        ("roundtrip.scheme.ek-7", R.from_grammar(R.build_ek_grammar(7)), True),
    ):
        round_trip(name, "macroscheme.format_scheme", R.format_scheme, "macroscheme.parse_scheme",
                   R.parse_scheme, s, props("repetitive", "scheme", 0), fixed)
    rnd_nd = nd.NdString.from_tokens((4, 5, 6), rand_grid(rng, 1, 120, ALPHA3)[0])
    for name, x, kind, fixed in (
        ("roundtrip.nd.bdk-3-2", nd.bdk(3, 2), "repetitive", True),
        ("roundtrip.nd.rand3-4x5x6", rnd_nd, "random", False),
    ):
        round_trip(name, "multidim.format_nd", nd.format_nd, "multidim.parse_nd", nd.parse_nd,
                   x, matrix_props(x, kind), fixed)
    return jobs


# ---------------------------------------------------------------------------
# solve-exact
# ---------------------------------------------------------------------------


def build_solve_exact(rng, workdir: Path) -> list[Job]:
    jobs: list[Job] = []

    def gamma_job(name, m, square, kind, fixed):
        def run(ctx):
            return ctx.call("measures.gamma_exact", R.gamma_exact, m, square_only=square)

        def check(out):
            lib = R.is_attractor(m, out, square_only=square, budget=Ledger())
            if not lib:
                return "gamma_exact output is not an attractor (is_attractor)"
            return ok_if(O.is_attractor(O.grid_of(m), out.positions, square),
                         "gamma_exact output is not an attractor (naive)")

        jobs.append(Job(name, run, check, digest, fixed, matrix_props(m, kind)))

    def g_job(name, m, runs, kind, fixed, work_limit=G_WORK_LIMIT, baseline=None):
        def run(ctx):
            return ctx.call("grammar2d.g_exact", R.g_exact, m, allow_runs=runs,
                            work_limit=work_limit)

        def check(out):
            if O.expand_grammar(out.grammar, RULES) != O.grid_of(m):
                return "g_exact grammar does not expand to its input (oracle)"
            return ok_if(R.expand(out.grammar, budget=Ledger()) == m,
                         "expand(g_exact(m).grammar) != m")

        jobs.append(Job(name, run, check, digest, fixed, matrix_props(m, kind), baseline))

    def b_job(name, m, kind, fixed, cell_limit=9, baseline=None):
        def run(ctx):
            return ctx.call("macroscheme.b_exact", R.b_exact, m, cell_limit=cell_limit)

        def check(out):
            if not R.validate_scheme(out).ok:
                return "b_exact returned an invalid scheme"
            if O.decode_scheme(out) != O.grid_of(m):
                return "b_exact scheme decodes wrongly (oracle)"
            return ok_if(R.decode(out, budget=Ledger()) == m, "decode(b_exact(m)) != m")

        jobs.append(Job(name, run, check, digest, fixed, matrix_props(m, kind), baseline))

    def mat(shape, alphabet, source=rng):
        return R.Matrix2D.from_tokens(rand_grid(source, shape[0], shape[1], alphabet))

    # The baselines run without a work limit, so their cost swings by 30x
    # between random 4x4 inputs. Their inputs come from a fixed generator,
    # the same on every seed: the ROADMAP row stays one case, and --seed
    # does not move a tenth of the pass time with one draw.
    fixed_rng = random.Random("solve-exact/baseline")
    g_job("baseline.g_exact_4x4", mat((4, 4), ALPHA2, fixed_rng), False, "random", True,
          work_limit=2_000_000, baseline="g_exact_4x4")
    b_job("baseline.b_exact_4x4", mat((4, 4), ALPHA2, fixed_rng), "random", True, cell_limit=16,
          baseline="b_exact_4x4")

    # Each random case has two draws, so that the cost of a pass depends
    # less on one unlucky input. The cheap gamma_exact and b_exact jobs
    # outnumber the g_exact ones by about 55, so the median job lies well
    # inside the cheap cluster.
    for i in range(DRAWS):
        for shape in ((4, 5), (4, 4), (3, 6), (2, 10), (5, 4), (1, 12), (3, 5), (2, 8), (4, 3)):
            for alphabet in (ALPHA2, ALPHA3):
                m = mat(shape, alphabet)
                tag = f"rand{len(alphabet)}-{shape[0]}x{shape[1]}-{i}"
                gamma_job(f"gamma.{tag}", m, False, "random", False)
                gamma_job(f"gamma_square.{tag}", m, True, "random", False)
    for name, m in (("identity-3", R.identity(3)), ("identity-4", R.identity(4)),
                    ("diagpad-3x5", R.diagpad(3, 5)), ("staircase-4", R.staircase(4))):
        gamma_job(f"gamma.{name}", m, False, "repetitive", True)

    for shape, alphabet, count, modes in (((4, 4), ALPHA2, 8, (False,)), ((4, 4), ALPHA2, 4, (True,)),
                                          ((4, 4), ALPHA3, 3, (False, True)),
                                          ((5, 4), ALPHA2, 3, (False, True)),
                                          ((5, 4), ALPHA3, 2, (False, True))):
        for i in range(count * DRAWS):
            m = mat(shape, alphabet)
            for runs in modes:
                tag = f"rand{len(alphabet)}-{shape[0]}x{shape[1]}-{i}"
                g_job(f"g_exact{'_rl' if runs else ''}.{tag}", m, runs, "random", False)
    g_job("g_exact.identity-4", R.identity(4), False, "repetitive", True)
    g_job("g_exact_rl.alt-2x6", R.alt(2, 6), True, "repetitive", True)

    for i in range(DRAWS):
        for shape in ((3, 3), (2, 4), (1, 9), (4, 2), (3, 2), (1, 8), (2, 3), (1, 7), (2, 2)):
            for alphabet in (ALPHA2, ALPHA3):
                b_job(f"b_exact.rand{len(alphabet)}-{shape[0]}x{shape[1]}-{i}",
                      mat(shape, alphabet), "random", False)
    b_job("b_exact.identity-3", R.identity(3), "repetitive", True)
    b_job("b_exact.alt-3x3", R.alt(3, 3), "repetitive", True)
    return jobs


# ---------------------------------------------------------------------------
# cli-tables
# ---------------------------------------------------------------------------

EXPERIMENTS = (
    "b-vs-grl-identity",
    "blocktree-vs-g",
    "bsq-vs-b",
    "gap-g-vs-delta",
    "gap-gamma-vs-delta",
    "gd-vs-delta-nd",
    "linearization-hilbert",
    "linearization-row",
)

_WALL_TIME = re.compile(r" in [0-9.]+s$", re.M)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPET2D_BUDGET", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build_cli_tables(rng, workdir: Path) -> list[Job]:
    root = Path(__file__).resolve().parent.parent
    env = child_env(root)
    jobs: list[Job] = []

    def cli(name, argv, expect_rc, check_out, fixed, p, csv=None):
        command = argv[0]

        def run(ctx):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repet2d.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
            )
            end = time.perf_counter()
            ctx.span(f"cli.{command}", start, end)
            out = {"rc": proc.returncode, "stdout": _WALL_TIME.sub("", proc.stdout)}
            if csv is not None:
                out["csv"] = (workdir / csv).read_text() if proc.returncode == 0 else ""
            if proc.returncode != expect_rc:
                raise RuntimeError(f"exit {proc.returncode}, expected {expect_rc}: {proc.stderr[-300:]}")
            return out

        jobs.append(Job(name, run, check_out, digest, fixed, p))

    for exp in EXPERIMENTS:
        def exp_check(out, exp=exp):
            lines = out["csv"].splitlines()
            if len(lines) < 2 or not lines[0].endswith(",status"):
                return f"{exp}: no table written"
            bad = [ln for ln in lines[1:] if not ln.endswith(",ok")]
            return ok_if(not bad, f"{exp}: rows not ok: {bad[:2]}")

        cli(f"experiment.{exp}", ["experiment", "--name", exp, "--csv", f"{exp}.csv"], 0,
            exp_check, True, props("repetitive", "table", 0), csv=f"{exp}.csv")

    def selftest_check(out):
        return ok_if("failed criteria: 2\n" in out["stdout"] and "8/9 criteria passed" in out["stdout"],
                     "selftest --quick should fail exactly criterion 2")

    cli("selftest.quick", ["selftest", "--quick"], 2, selftest_check, True,
        props("repetitive", "table", 0))

    m = R.Matrix2D.from_tokens(rand_grid(rng, 32, 32, ALPHA2))
    R.write_matrix(m, workdir / "m.txt")
    g = random_grammar(rng, target_rules=16, max_area=512)
    R.write_grammar(g, workdir / "g.txt")
    ek = R.build_ek_grammar(8)
    R.write_grammar(ek, workdir / "ek.txt")
    R.write_scheme(R.from_grammar(g), workdir / "s.txt")
    x = nd.NdString.from_tokens((5, 5, 5), rand_grid(rng, 1, 125, ALPHA2)[0])
    nd.write_nd(workdir / "x.nd", x)
    g_grid = O.expand_grammar(g, RULES)

    def table(out) -> dict[str, str]:
        rows = {}
        for line in out["stdout"].splitlines()[1:]:
            parts = line.split(None, 1)
            if len(parts) == 2:
                rows[parts[0]] = parts[1].strip()
        return rows

    def measure_check(out):
        want = R.delta(m, budget=Ledger())
        got = table(out)
        return ok_if(got.get("delta") == str(want.value), f"measure delta {got.get('delta')} != {want.value}")

    def expand_check(out):
        return ok_if(O.grid_of(R.parse_matrix(out["stdout"])) == g_grid, "grammar expand output wrong")

    def access_check(out):
        return ok_if("matches yes" in out["stdout"], "access --verify-all did not match")

    def decode_check(out):
        return ok_if(O.grid_of(R.parse_matrix(out["stdout"])) == g_grid, "macro decode output wrong")

    def blocktree_check(out):
        want = R.node_count(R.build_blocktree(m, budget=Ledger()))
        return ok_if(f"total_nodes {want} " in out["stdout"], "blocktree node count wrong")

    def linearize_check(out):
        flat = R.parse_matrix(out["stdout"])
        return ok_if(flat == R.phlin(m), "linearize --method hilbert output wrong")

    def nd_check(out):
        want = nd.delta_nd(x, budget=Ledger())
        return ok_if(table(out).get("delta") == str(want), "nd measure delta wrong")

    pm = matrix_props(m)
    cli("measure.rand2-32", ["measure", "--in", "m.txt"], 0, measure_check, False, pm)
    cli("grammar.expand.random", ["grammar", "expand", "--in", "g.txt"], 0, expand_check, False,
        grid_props(g_grid, "repetitive"))
    cli("access.verify-all.ek-8", ["access", "--grammar", "ek.txt", "--verify-all"], 0, access_check,
        True, matrix_props(R.expand(ek), "repetitive"))
    cli("macro.decode.random", ["macro", "decode", "--in", "s.txt"], 0, decode_check, False,
        grid_props(g_grid, "repetitive"))
    cli("blocktree.rand2-32", ["blocktree", "--in", "m.txt"], 0, blocktree_check, False, pm)
    cli("linearize.hilbert.rand2-32", ["linearize", "--in", "m.txt", "--method", "hilbert"], 0,
        linearize_check, False, pm)
    cli("nd.measure.rand2-5x5x5", ["nd", "measure", "--in", "x.nd"], 0, nd_check, False,
        matrix_props(x))
    return jobs


BUILDERS = {
    "measure-mix": build_measure_mix,
    "represent-mix": build_represent_mix,
    "solve-exact": build_solve_exact,
    "cli-tables": build_cli_tables,
}

# Whether a workload's jobs run in child processes, which may land on any CPU.
CHILD_PROCESSES = {
    "measure-mix": False,
    "represent-mix": False,
    "solve-exact": False,
    "cli-tables": True,
}


def extra_counts(name: str, args: tuple, out) -> dict:
    """Ratio bases taken from a traced call's arguments and result."""
    if name in ("core2d.from_tokens", "macroscheme.decode"):
        return {"cells": out.rows * out.cols}
    if name == "access2d.access":
        return {"hops": out[1]}
    if name == "access2d.full_scan":
        return {"cells": args[0].rows * args[0].cols}
    if name == "grammar2d.g_exact":
        return {"optimal": int(out.optimal), "work": out.work}
    if name == "blocktree2d.build_blocktree":
        return {"nodes": R.node_count(out), "pruned": R.count_pruned(out, in_region_only=False)}
    return {}


def work_limit_hit(out) -> bool:
    return isinstance(out, R.grammar2d.GrammarSearchResult) and not out.optimal
