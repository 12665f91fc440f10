"""Desk-scale experiment tables.

Each experiment runs a named matrix family over a small parameter range
and emits one CSV row per instance.  The tables demonstrate growth
*directions* (one measure stays flat while another climbs); nothing here
tries to estimate asymptotic constants.  Output is deterministic: the
same package version and parameters always produce byte-identical CSV.

Every row carries a trailing ``status`` column: ``ok`` normally, or the
error type name if that instance failed, so a partial table is still
written rather than the whole run dying.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .blocktree2d import build_blocktree, count_pruned, node_count
from .errors import BadParam, Repet2dError
from .families import bk, diagpad, ek, identity, staircase
from .grammar2d import build_bk_grammar, build_ek_grammar, expand
from .linearize import onerun_certificate, phlin, rlin, scan
from .macroscheme import (
    decode,
    from_grammar,
    identity_scheme,
    square_phrase_bound,
    unique_square_certificate,
)
from .measures import (
    delta,
    delta_square,
    diagpad_attractor,
    gamma_lower_bound_unique,
    is_attractor,
)
from . import multidim as nd

Params = tuple[int, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment over a parameter range.

    ``params`` holds one tuple per row (mostly 1-tuples; the
    d-dimensional table uses (d, k) pairs).  ``out_path`` is where the
    CSV goes; None means the caller handles output itself.
    """

    name: str
    params: tuple[Params, ...]
    out_path: str | None = None


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    @property
    def summary(self) -> str:
        bad = sum(1 for r in self.rows if r[-1] != "ok")
        note = "" if not bad else f", {bad} rows errored"
        return f"{self.name}: {len(self.rows)} rows{note}"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.header)
        w.writerows(self.rows)
        return buf.getvalue()


def _frac(x: Fraction) -> str:
    return str(x)


# --- row builders -----------------------------------------------------------
# Each returns the column values after the parameter columns; the harness
# prepends the parameters and appends the status.


def _row_gap_gamma(m: int) -> tuple:
    mat = diagpad(m, m + 2)
    att = diagpad_attractor(m, m + 2)
    return (
        m + 2,
        mat.area,
        _frac(delta(mat).value),
        len(att),
        "yes" if is_attractor(mat, att) else "no",
        gamma_lower_bound_unique(mat),
    )


def _row_gap_g(k: int) -> tuple:
    mat = ek(k)
    return (
        mat.area,
        build_ek_grammar(k).size,
        _frac(delta(mat).value),
        _frac(Fraction(2**k, k)),
    )


def _row_blocktree(k: int) -> tuple:
    mat = bk(k)
    pad = 1 << (mat.rows - 1).bit_length()
    bt = build_blocktree(mat, 2, pad_to=pad)
    return (
        mat.rows,
        mat.area,
        build_bk_grammar(k).size,
        node_count(bt),
        count_pruned(bt, min_side=k, in_region_only=True),
    )


def _row_lin_row(n: int) -> tuple:
    mat = staircase(n)
    return (
        mat.area,
        _frac(delta(mat).value),
        _frac(delta(rlin(mat)).value),
        _frac(Fraction(n - 1, 2)),
    )


def _row_lin_hilbert(k: int) -> tuple:
    mat = identity(2**k)
    flat = phlin(mat)
    return (
        2**k,
        _frac(delta(mat).value),
        _frac(delta(flat).value),
        "yes" if scan(mat, "rs") == scan(mat, "ds") else "no",
        "yes" if onerun_certificate(flat, k) else "no",
    )


def _row_b_identity(n: int) -> tuple:
    s = identity_scheme(n)
    return (
        n * n,
        s.size,
        "yes" if decode(s) == identity(n) else "no",
    )


def _row_bsq(k: int) -> tuple:
    mat = bk(k)
    scheme = from_grammar(build_bk_grammar(k))
    return (
        mat.rows,
        mat.area,
        "yes" if unique_square_certificate(mat, k) else "no",
        square_phrase_bound(mat, k),
        scheme.size,
        "yes" if decode(scheme) == mat else "no",
    )


def _row_nd(d: int, k: int) -> tuple:
    cube = nd.bdk(d, k)
    g = nd.build_bdk_grammar(d, k)
    return (
        cube.dims[0],
        cube.area,
        g.size,
        _frac(nd.delta_nd(cube)),
        "yes" if nd.expand_nd(g) == cube else "no",
    )


@dataclass(frozen=True)
class _Entry:
    param_cols: tuple[str, ...]
    value_cols: tuple[str, ...]
    row: Callable[..., tuple]
    default_params: tuple[Params, ...]
    blurb: str = field(default="", compare=False)


def _singles(values: Sequence[int]) -> tuple[Params, ...]:
    return tuple((v,) for v in values)


REGISTRY: dict[str, _Entry] = {
    "gap-gamma-vs-delta": _Entry(
        ("m",),
        ("n", "cells", "delta", "attractor_size", "attractor_ok", "gamma_lb"),
        _row_gap_gamma,
        _singles(range(3, 11)),
        "padded-diagonal family: delta stays <= 2 while gamma grows with min(m,n)",
    ),
    "gap-g-vs-delta": _Entry(
        ("k",),
        ("cells", "grammar_size", "delta", "bound_2k_over_k"),
        _row_gap_g,
        _singles(range(2, 7)),
        "bit-count family: grammar size O(k) while delta >= 2^k/k",
    ),
    "blocktree-vs-g": _Entry(
        ("k",),
        ("side", "cells", "grammar_size", "blocktree_nodes", "pruned_side_k"),
        _row_blocktree,
        _singles((1, 2, 3)),
        "de Bruijn products: every window distinct, so block trees cannot prune",
    ),
    "linearization-row": _Entry(
        ("n",),
        ("cells", "delta_2d", "delta_row", "bound_half_n_minus_1"),
        _row_lin_row,
        _singles((8, 16, 32)),
        "staircase family: row-major flattening blows delta up from <= 6 to >= (n-1)/2",
    ),
    "linearization-hilbert": _Entry(
        ("k",),
        ("side", "delta_2d", "delta_curve", "rs_eq_ds", "onerun_ok"),
        _row_lin_hilbert,
        _singles(range(1, 7)),
        "identity under the plane-filling scan: delta stays flat, runs of zeros grow",
    ),
    "b-vs-grl-identity": _Entry(
        ("n",),
        ("cells", "scheme_size", "decode_ok"),
        _row_b_identity,
        _singles((3,) + tuple(2**j for j in range(2, 11))),
        "identity macro scheme: size 6 at every n while grammars need Omega(log n)",
    ),
    "bsq-vs-b": _Entry(
        ("k",),
        ("side", "cells", "windows_unique", "square_phrase_lb", "scheme_size", "decode_ok"),
        _row_bsq,
        _singles((1, 2, 3)),
        "square-restricted schemes need one phrase per k x k tile; free schemes stay linear in the side",
    ),
    "gd-vs-delta-nd": _Entry(
        ("d", "k"),
        ("side", "cells", "grammar_size", "delta", "expand_ok"),
        _row_nd,
        ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)),
        "d-dimensional de Bruijn cubes: grammar size vs exact delta, reported not asserted",
    ),
}


def experiment_names() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def default_spec(name: str, out_path: str | None = None) -> ExperimentSpec:
    if name not in REGISTRY:
        raise BadParam(
            f"unknown experiment {name!r}; known: {', '.join(experiment_names())}"
        )
    return ExperimentSpec(name, REGISTRY[name].default_params, out_path)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Compute the table for ``spec``.

    Rows are computed one after another in order of their parameter tuple,
    so output is reproducible.  A row whose computation raises a package
    error is kept with its error name in ``status``.
    """
    if spec.name not in REGISTRY:
        raise BadParam(
            f"unknown experiment {spec.name!r}; known: {', '.join(experiment_names())}"
        )
    entry = REGISTRY[spec.name]
    header = entry.param_cols + entry.value_cols + ("status",)

    def one(params: Params) -> tuple[str, ...]:
        if len(params) != len(entry.param_cols):
            raise BadParam(
                f"{spec.name} takes {len(entry.param_cols)} parameter(s), got {params}"
            )
        try:
            values = entry.row(*params)
            status = "ok"
        except Repet2dError as exc:
            values = ("",) * len(entry.value_cols)
            status = type(exc).__name__
        return tuple(str(v) for v in params) + tuple(str(v) for v in values) + (status,)

    rows = tuple(one(params) for params in sorted(spec.params))
    return ExperimentResult(spec.name, header, rows)


def write_result(result: ExperimentResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(result.to_csv())
