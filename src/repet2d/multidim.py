"""d-dimensional strings: axis concatenation, grammars, window complexity.

An ``NdString`` stores dense ids in generalized row-major order (the last
axis varies fastest) in the same ``core2d.IdString`` storage as
``Matrix2D``, whose id array ``to_nd``/``to_2d`` share.  The algorithms
are written once for any number of axes and the 2D functions are their
d = 2 case: window ranking is the one loop ``core2d.rank_windows``, delta
is ``core2d.densest_shape`` (which prunes the passes by its two exact
rules: the bound stop and determinism, the last off only on cubes, which
``delta_nd`` never asks for), grammar validation
and expansion are ``grammar2d.resolve_dims`` and ``grammar2d.expand_ids``
(which read ``ConcatNd``/``RunNd`` and the 2D rules alike, with one
``Terminal``).  This module holds the dD types, the adapters of the public
dD functions (window labels are read off ``rank_windows`` directly), the dD
de Bruijn cube, its grammar and the ``nd`` format;
``to_nd``/``to_2d``/``grammar_to_nd`` embed 2D losslessly.  Macro schemes
are 2D only (``macroscheme``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .budget import WorkBudget, ensure_budget
from .core2d import (
    IdString,
    Matrix2D,
    check_cap,
    concat_ids,
    densest_shape,
    rank_windows,
    read_utf8,
    write_utf8,
)
from .errors import AxisMismatch, BadParam, OutOfBounds, ParseError
from .families import padded_debruijn
from .grammar2d import (
    ConcatNd,
    Grammar2D,
    RuleNd,
    RunNd,
    Terminal,
    _rhs_key,
    balanced_slp,
    expand_ids,
    resolve_dims,
    rule_size,
)

#: budget label of every dD ranking pass, whatever its axis
_RANKING = ("window ranking",)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class NdString(IdString):
    """A d-dimensional string over a finite alphabet: an ``IdString`` read
    at 1-based position tuples, ``Matrix2D``'s storage for any number of
    axes."""

    _FIELDS = ("dims", "cells", "alphabet")

    @classmethod
    def from_tokens(
        cls, dims: Sequence[int], tokens: Iterable[object]
    ) -> "NdString":
        dims = tuple(int(n) for n in dims)
        if not dims or any(n < 1 for n in dims):
            raise BadParam(f"dims must be a non-empty tuple of >= 1, got {dims}")
        check_cap(dims)
        return cls._encoded(dims, tokens)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def at(self, pos: Sequence[int]) -> str:
        """Token at a 1-based position tuple."""
        pos = tuple(pos)
        if len(pos) != self.ndim or any(
            not 1 <= p <= n for p, n in zip(pos, self.dims)
        ):
            raise OutOfBounds(f"position {pos} outside dims {self.dims}")
        return self.alphabet[self.ids[tuple(p - 1 for p in pos)]]

    def tokens_flat(self) -> tuple[str, ...]:
        return tuple(map(self.alphabet.__getitem__, self.ids.ravel().tolist()))


def to_nd(m: Matrix2D) -> NdString:
    """Embed a matrix as a 2-dimensional NdString (the same id array)."""
    return NdString(m.dims, m.ids, m.alphabet)


def to_2d(x: NdString) -> Matrix2D:
    if x.ndim != 2:
        raise BadParam(f"need a 2-dimensional string, got {x.ndim} axes")
    return Matrix2D(x.dims[0], x.dims[1], x.ids, x.alphabet)


def concat_axis(a: NdString, b: NdString, axis: int) -> NdString:
    """Concatenate along 1-based ``axis``; all other extents must agree."""
    if a.ndim != b.ndim:
        raise AxisMismatch(f"operands have {a.ndim} and {b.ndim} axes")
    if not 1 <= axis <= a.ndim:
        raise BadParam(f"axis must be in 1..{a.ndim}, got {axis}")
    for j, (p, q) in enumerate(zip(a.dims, b.dims), start=1):
        if j != axis and p != q:
            raise AxisMismatch(
                f"axis {j} extents differ ({p} vs {q}); only axis {axis} may"
            )
    return NdString(*concat_ids(a, b, axis))


# ---------------------------------------------------------------------------
# dD grammars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrammarNd:
    ndim: int
    axiom: str
    rules: Mapping[str, RuleNd]

    @property
    def size(self) -> int:
        return sum(map(rule_size, self.rules.values()))


@dataclass(frozen=True)
class NdInfo:
    size: int
    dims: tuple[int, ...]
    var_dims: Mapping[str, tuple[int, ...]]


def validate_nd(g: GrammarNd) -> NdInfo:
    """Structural validation; returns per-variable extents.

    Same error taxonomy as the 2D validator: DanglingVariable, BadParam
    (axis out of range, run exponent < 2), DuplicateRHS, CycleDetected and
    DimMismatch when concatenated extents disagree off-axis.
    """
    if g.ndim < 1:
        raise BadParam(f"grammar needs >= 1 axes, got {g.ndim}")
    _, var_dims = resolve_dims(g.axiom, g.rules, g.ndim)
    return NdInfo(g.size, var_dims[g.axiom], var_dims)


def expand_nd(g: GrammarNd, budget: WorkBudget | None = None) -> NdString:
    """The d-dimensional string derived from the axiom."""
    info = validate_nd(g)
    root, tokens = expand_ids(g.axiom, g.rules, info.var_dims, budget)
    return NdString(info.dims, root, tokens)


def grammar_to_nd(g: Grammar2D) -> GrammarNd:
    """Embed a 2D grammar: rows are axis 1, columns axis 2."""
    rules: dict[str, RuleNd] = {}
    for name, rule in g.rules.items():
        _, axis, count, children = _rhs_key(rule)
        if isinstance(rule, Terminal):
            rules[name] = rule
        elif count:
            rules[name] = RunNd(axis, count, *children)
        else:
            rules[name] = ConcatNd(axis, *children)
    return GrammarNd(2, g.axiom, rules)


# ---------------------------------------------------------------------------
# the d-dimensional de Bruijn hypercube and its grammar
# ---------------------------------------------------------------------------


def _check_bdk(d: int, k: int) -> None:
    if d < 1 or k < 1 or d * k > 18:
        raise BadParam(f"need d, k >= 1 and d*k <= 18, got d={d}, k={k}")


def bdk(d: int, k: int) -> NdString:
    """d-dimensional hypercube of side 2^k + k - 1 whose cell at (i_1..i_d)
    is the d-bit value D[i_1]...D[i_d] (first axis most significant), D the
    padded de Bruijn string of order k.  Every k x ... x k subcube encodes a
    distinct tuple of k-bit windows, so all 2^(dk) of them are distinct."""
    _check_bdk(d, k)
    seq = np.array(padded_debruijn(k), dtype=np.int64)
    n = len(seq)
    grid = np.zeros((n,) * d, dtype=np.int64)
    for i in range(d):
        shape = [1] * d
        shape[i] = n
        grid = grid * 2 + seq.reshape(shape)
    return NdString.from_tokens((n,) * d, grid.ravel().tolist())


def build_bdk_grammar(d: int, k: int) -> GrammarNd:
    """Grammar for bdk(d, k) by recursive doubling over the dimensions.

    Dimension step: two copies of the (d-1)-dimensional grammar handle the
    cells whose leading bit is 0 resp. 1, and a lift of the 1D balanced
    grammar for D concatenates whole slabs along the new leading axis.  The
    terminals of each copy are relabeled by prefixing the leading bit, so
    sizes follow |G_d| = 2 |G_(d-1)| + |G_1| - 2.
    """
    _check_bdk(d, k)
    dstr = "".join(str(b) for b in padded_debruijn(k))
    rules: dict[str, RuleNd] = {}

    def grammar_for(dim: int, tag: int) -> str:
        """Axiom for the dim-cube whose cell ids carry high bits ``tag``."""
        if dim == 1:
            leaf: dict[str, str] = {}
            for bit in "01":
                tok = str(tag * 2 + int(bit))
                tname = f"T{tok}"
                rules.setdefault(tname, Terminal(tok))
                leaf[bit] = tname
        else:
            a0 = grammar_for(dim - 1, tag * 2)
            leaf = {"0": a0, "1": grammar_for(dim - 1, tag * 2 + 1)}
        # balanced concatenation of the leaves along this dimension's axis
        join = partial(ConcatNd, d - dim + 1)
        return balanced_slp(dstr, leaf.__getitem__, join, f"D{dim}T{tag}N", rules)[0]

    axiom = grammar_for(d, 0)
    return GrammarNd(d, axiom, rules)


# ---------------------------------------------------------------------------
# dD window complexity
# ---------------------------------------------------------------------------


def factor_count_nd(
    x: NdString, shape: Sequence[int], budget: WorkBudget | None = None
) -> int:
    """Number of distinct windows of the given shape (one chain of ranking
    passes)."""
    shape = tuple(int(k) for k in shape)
    if len(shape) != x.ndim or any(
        not 1 <= k <= n for k, n in zip(shape, x.dims)
    ):
        raise OutOfBounds(f"window shape {shape} does not fit in {x.dims}")
    return next(rank_windows(x._grid, [shape], ensure_budget(budget), _RANKING * x.ndim))[2]


def delta_nd(x: NdString, budget: WorkBudget | None = None) -> Fraction:
    """max over window shapes of (#distinct windows) / (window volume)."""
    return densest_shape(x._grid, False, ensure_budget(budget), _RANKING * x.ndim)[0]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def format_nd(x: NdString) -> str:
    """Header ``nd <d> <n1> ... <nd>``, then tokens in generalized
    row-major order, one last-axis row per line."""
    head = "nd " + str(x.ndim) + " " + " ".join(map(str, x.dims))
    toks = x.tokens_flat()
    width = x.dims[-1]
    lines = [head]
    for i in range(0, len(toks), width):
        lines.append(" ".join(toks[i : i + width]))
    return "\n".join(lines) + "\n"


def parse_nd(text: str) -> NdString:
    lines = text.splitlines()
    header: list[str] | None = None
    toks: list[str] = []
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if header is None:
            header = parts
            continue
        toks.extend(parts)
    if header is None or len(header) < 2 or header[0] != "nd":
        raise ParseError("expected header 'nd <d> <n1> ... <nd>'")
    try:
        d = int(header[1])
        dims = tuple(int(t) for t in header[2:])
    except ValueError as exc:
        raise ParseError(f"bad header {' '.join(header)!r}") from exc
    if d < 1 or len(dims) != d:
        raise ParseError(f"header declares {d} axes but lists {len(dims)} extents")
    if any(n < 1 for n in dims):
        raise ParseError(f"extents must be >= 1, got {dims}")
    return NdString.from_tokens(dims, toks)


def read_nd(path) -> NdString:
    return parse_nd(read_utf8(path))


def write_nd(path, x: NdString) -> None:
    write_utf8(path, format_nd(x))
