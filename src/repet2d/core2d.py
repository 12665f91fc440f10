"""2D strings (matrices over a finite alphabet) and factor enumeration.

Conventions used across the whole package:

* indexing is 1-based and inclusive, so ``M[i1..i2][j1..j2]`` with
  ``1 <= i1 <= i2 <= rows`` is the rectangle whose top-left cell is (i1, j1);
* a *factor* of shape (k1, k2) is any contiguous k1 x k2 submatrix;
* occurrences are identified by the 1-based position of their top-left cell,
  and *RMO* (row-major order) of those positions is the canonical tie-break;
* factor equality is token equality: two factors are equal iff their token
  grids are equal, regardless of which matrices they were cut from.

Distinct-factor counting is exact: windows of a shape are dense-ranked by
iterated pair ranking, extending the shape one column / one row at a time.
``rank_windows`` is the one loop that does this, for any number of axes:
delta, the attractor layer, factor counts and listings and the exact g and
b solvers (through ``WindowIds``) all read its walk. Each pass
ranks the (window id, next cell id) pairs, in linear time by marking them in
a bool array over the pair-id range, or, when that range is sparse, by one
sort of keys that pack each pair id with its position. No hashing is
involved, so there are no collisions to resolve and results are
deterministic. ``densest_shape`` (delta for any number of axes) walks the
same passes over every shape without listing them, and ends a chain once
the answer is settled, by a bound stop or by determinism; both prunings are
exact. Block trees need only the squares whose side is a power of their
arity, and rank those by doubling with the same pair rank instead
(``blocktree2d``).

A chain whose shapes need counts only, not labels (one along the first
axis, or along an axis whose earlier extents are all 1, as on a 1 x n
string), can also count the rest of its shapes at once. Once it has ranked
extent k0, a window of extent k >= k0 is the run of the k - k0 + 1 windows
of extent k0 that start in it, so the count at k is the number of distinct
length-(k - k0 + 1) substrings of the lines of the k0 label grid along the
chain's axis. One prefix-doubling suffix sort of those lines, each closed by
an end id of its own (Karp, Miller and Rosenberg 1972; Manber and Myers
1993), and the LCP of each suffix with the one sorted before it, lifted over
the doubling levels, give every such count: the length-j substrings are the
suffixes of length >= j whose LCP is below j (as in Kasai et al. 2001).
``densest_shape``'s walk (``rank_windows`` with ``densest``) switches a
chain to this sort (``_chain_counts``) once the passes it has left exceed
what the sort costs, ``_SORT_AFTER * ceil(log2 n)`` passes: both the
extents before its horizon, where the bound stop would end it, and the
passes its count would take to reach its window count. ``densest_shape``
then reads the sorted counts in one loop.

Determinism is the counting step behind the Morse-Hedlund theorem (Morse and
Hedlund, "Symbolic dynamics", 1938) and behind delta <= gamma (Kociumaka,
Navarro and Prezza, LATIN 2020). Say the pass from shape t to t + e_a along
axis a pairs every window of t that has a next slab with one next slab only.
Then each window of t + j * e_a (j >= 1) is fixed by the t-window at its
corner, slab by slab, and each window of a shape s reached from it through
the axes before a is fixed by the window of its t-part t' (s with t's extent
on axis a) at the same corner. So count(s) <= count(t') while vol(s) >
vol(t'), s is strictly below t', which was ranked or pruned before, and the
chain ends there without a tie moving. The pass holds the sorted distinct
pair ids, so the test is that no two of them share their left id; it is only
made when count(t + e_a) <= count(t), which it implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product
from math import prod
from operator import countOf, sub
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .budget import WorkBudget, ensure_budget
from .errors import (
    BadParam,
    ColMismatch,
    OutOfBounds,
    ParseError,
    RowMismatch,
    TooLarge,
)

Position = tuple[int, int]
TokenGrid = tuple[tuple[str, ...], ...]

#: hard cap on cells, matching the documented family caps (~16M)
MAX_CELLS = 1 << 24


def check_cap(dims: Sequence[int]) -> None:
    """Raise TooLarge when a grid of extents ``dims`` would hold more than
    ``MAX_CELLS`` cells; called before any cell is built."""
    if prod(dims) > MAX_CELLS:
        raise TooLarge(f"{'x'.join(map(str, dims))} exceeds the {MAX_CELLS}-cell cap")


#: budget labels of the 2D ranking passes along axis 1 (rows) and axis 2
RANKING_2D = ("column ranking", "row ranking")


@dataclass(frozen=True)
class FactorShape:
    """Shape (k1, k2) of a rectangular factor: k1 rows by k2 columns."""

    k1: int
    k2: int

    @property
    def area(self) -> int:
        return self.k1 * self.k2


#: token sequences this long or shorter skip the one-character byte path:
#: its fixed numpy cost outweighs what it saves up to about 256 binary tokens
_BYTE_PATH_MIN = 256


def _one_byte_letters(text: str, n: int) -> bytes | None:
    """The latin-1 bytes of the ``n`` tokens that ``text`` joins with
    newlines when every token is one character up to U+00FF, else None.
    The n tokens are one character each iff the text is 2n - 1 long, every
    odd index holds a newline and no even index does (a token holding a
    newline adds one)."""
    if len(text) != 2 * n - 1:
        return None
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        return None
    letters = data[::2]
    if b"\n" in letters or data[1::2].count(b"\n") != n - 1:
        return None
    return letters


def _letter_ids(
    letters: bytes, alphabet: tuple[str, ...] | None = None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The ids and alphabet of tokens that are one latin-1 byte each, given
    as the bytes ``letters``: one byte translation of them, read as an array
    with no copy. Unless ``alphabet`` is given, the letters are marked in a
    256-entry table, and a whitespace letter is reported at its first
    occurrence."""
    if alphabet is None:
        seen = np.zeros(256, dtype=bool)
        seen[np.frombuffer(letters, dtype=np.uint8)] = True
        alphabet = tuple(map(chr, np.flatnonzero(seen).tolist()))
        bad = [tok for tok in alphabet if tok.split() != [tok]]
        if bad:  # the one that occurs first
            tok = min(bad, key=lambda tok: letters.index(ord(tok)))
            raise ParseError(f"invalid token {tok!r}")
    table = bytearray(256)
    for i, tok in enumerate(alphabet):
        table[ord(tok)] = i
    return np.frombuffer(letters.translate(table), dtype=np.uint8), alphabet


def encode_tokens(
    tokens: Iterable[object],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Dense ids of the str()-ed tokens into their sorted alphabet, as a
    one-axis array of ``id_dtype(len(alphabet))``.

    Each distinct token is validated once, in order of first occurrence, so
    the first invalid token of the sequence is the one reported. Tokens that
    are all plain ``str`` are used as they are (a ``str`` subclass may print
    otherwise, so one of them sends every token through ``str()``); a list
    is read in place, never copied. More than 256 tokens that are each one
    character up to U+00FF take a byte path (``_letter_ids``). Otherwise the
    distinct tokens are found with a dict. When every letter is one
    character up to U+00FF, hence at most 256 letters, the ids are one byte
    translation of the joined tokens; otherwise one dict lookup a token.
    """
    toks = tokens if type(tokens) is list else list(tokens)
    if countOf(map(type, toks), str) != len(toks):
        toks = list(map(str, toks))
    if len(toks) > _BYTE_PATH_MIN:
        letters = _one_byte_letters("\n".join(toks), len(toks))
        if letters is not None:
            return _letter_ids(letters)
    distinct = dict.fromkeys(toks)
    for tok in distinct:
        if tok.split() != [tok]:
            raise ParseError(f"invalid token {tok!r}")
    alphabet = tuple(sorted(distinct))
    if not all(len(tok) == 1 and tok <= "\xff" for tok in alphabet):
        index = {tok: i for i, tok in enumerate(alphabet)}
        ids = map(index.__getitem__, toks)
        return np.fromiter(ids, id_dtype(len(alphabet)), len(toks)), alphabet
    return _letter_ids("".join(toks).encode("latin-1"), alphabet)


def id_dtype(letters: int) -> type[np.integer]:
    """The dtype of cell ids over ``letters`` letters: one byte a cell for
    at most 256."""
    return np.uint8 if letters <= 256 else np.int32


@dataclass(frozen=True, init=False, repr=False, eq=False)
class IdString:
    """Storage shared by ``Matrix2D`` and ``NdString``: an immutable string
    with extents ``dims`` over an ordered token alphabet.

    ``ids`` is a read-only array of shape ``dims`` and dtype
    ``id_dtype(len(alphabet))`` holding dense ids into ``alphabet`` (the
    last axis varies fastest), which is always the sorted tuple of the
    distinct tokens actually present, so two strings are equal exactly when
    their token grids are. The ids may be given as an array, which the
    string then owns (no one may write it after), or as a sequence of ints
    in row-major order. ``cells``, the same ids as a tuple of ints, is
    built on first read and kept; a tuple given is kept as it is.
    ``repr``, ``==``, ``hash`` and pickling read the fields ``_FIELDS``
    names, as for a frozen dataclass of those fields; each subclass is
    frozen too, so that no attribute of it can be set.
    """

    dims: tuple[int, ...]
    ids: np.ndarray
    alphabet: tuple[str, ...]

    def __init__(self, dims: Sequence[int], ids: Sequence[int] | np.ndarray,
                 alphabet: tuple[str, ...]):
        dims = tuple(dims)
        dtype = id_dtype(len(alphabet))
        if not isinstance(ids, np.ndarray):
            self.__dict__["cells"] = cells = tuple(ids)
            # bytes() of one-byte ids is the fast way from a tuple
            if dtype is np.uint8:
                ids = np.frombuffer(bytes(cells), dtype=np.uint8)
            else:
                ids = np.array(cells, dtype=dtype)
        ids = ids.astype(dtype, copy=False).reshape(dims)  # a view of its own
        ids.setflags(write=False)
        self.__dict__.update(dims=dims, ids=ids, alphabet=alphabet)

    @classmethod
    def _encoded(cls, dims: tuple[int, ...], tokens: Iterable[object]):
        """The string of extents ``dims`` holding ``tokens`` in row-major
        order (non-str tokens are str()-ed); the caller has checked ``dims``
        with ``check_cap``."""
        ids, alphabet = encode_tokens(tokens)
        total = prod(dims)
        if len(ids) != total:
            raise ParseError(f"expected {total} tokens for dims {dims}, got {len(ids)}")
        out = cls.__new__(cls)
        IdString.__init__(out, dims, ids, alphabet)
        return out

    @cached_property
    def cells(self) -> tuple[int, ...]:
        """The ids as a tuple of ints, in row-major order."""
        if self.ids.dtype == np.uint8:
            return tuple(self.ids.tobytes())
        return tuple(self.ids.ravel().tolist())

    @cached_property
    def _grid(self) -> np.ndarray:
        """The ids as a read-only int64 array of shape ``dims``, the form
        the window ranking reads."""
        grid = self.ids.astype(np.int64)
        grid.setflags(write=False)
        return grid

    @property
    def area(self) -> int:
        return self.ids.size

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.dims == other.dims
            and self.alphabet == other.alphabet
            and np.array_equal(self.ids, other.ids)
        )

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # the constructor takes the fields in order, the ids for the cells
        args = (self.ids if name == "cells" else getattr(self, name) for name in self._FIELDS)
        return type(self), tuple(args)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Matrix2D(IdString):
    """An immutable m x n string over an ordered token alphabet: an
    ``IdString`` of extents ``(rows, cols)`` read at 1-based (i, j)."""

    _FIELDS = ("rows", "cols", "cells", "alphabet")

    def __init__(self, rows: int, cols: int, ids: Sequence[int] | np.ndarray,
                 alphabet: tuple[str, ...]):
        IdString.__init__(self, (rows, cols), ids, alphabet)

    @classmethod
    def from_tokens(cls, grid: Sequence[Sequence[object]]) -> "Matrix2D":
        """Build from rows of tokens (non-str tokens are str()-ed).

        More than 256 tokens that are all plain ``str`` are joined row by
        row, with no flat list of them, and when each is one character up
        to U+00FF take ``encode_tokens``' byte path from that text; all
        other tokens go through ``encode_tokens`` as one flat list."""
        if not grid or not grid[0]:
            raise BadParam("a 2D string must have at least one cell")
        rows = len(grid)
        cols = len(grid[0])
        check_cap((rows, cols))
        for r, row in enumerate(grid, start=1):
            if len(row) != cols:
                # a bad token in an earlier row wins
                encode_tokens(chain.from_iterable(islice(grid, r - 1)))
                raise RowMismatch(
                    f"row {r} has {len(row)} tokens, expected {cols}"
                )
        n = rows * cols
        if n > _BYTE_PATH_MIN and countOf(map(type, chain.from_iterable(grid)), str) == n:
            letters = _one_byte_letters("\n".join(map("\n".join, grid)), n)
            if letters is not None:
                return cls(rows, cols, *_letter_ids(letters))
        return cls._encoded((rows, cols), chain.from_iterable(grid))

    @property
    def rows(self) -> int:
        return self.dims[0]

    @property
    def cols(self) -> int:
        return self.dims[1]

    def id_at(self, i: int, j: int) -> int:
        self._check_pos(i, j)
        return self.ids.item(i - 1, j - 1)

    def at(self, i: int, j: int) -> str:
        """Token at 1-based position (i, j)."""
        return self.alphabet[self.id_at(i, j)]

    def tokens(self) -> TokenGrid:
        letter = self.alphabet.__getitem__
        return tuple(tuple(map(letter, row)) for row in self.ids.tolist())

    def row_tokens(self, i: int) -> tuple[str, ...]:
        self._check_pos(i, 1)
        return tuple(map(self.alphabet.__getitem__, self.ids[i - 1].tolist()))

    def _check_pos(self, i: int, j: int) -> None:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise OutOfBounds(
                f"position ({i},{j}) outside {self.rows}x{self.cols}"
            )

    def __str__(self) -> str:
        return "\n".join(" ".join(row) for row in self.tokens())


def concat_ids(
    a: IdString, b: IdString, axis: int
) -> tuple[tuple[int, ...], np.ndarray, tuple[str, ...]]:
    """The extents, ids and alphabet of ``b`` glued after ``a`` along the
    1-based ``axis`` (the caller has checked that every other extent
    agrees): each operand's ids are remapped into the merged alphabet and
    the two arrays concatenated. Raises TooLarge before any cell is built
    when the result would pass the cap."""
    dims = list(a.dims)
    dims[axis - 1] += b.dims[axis - 1]
    check_cap(dims)
    alphabet = tuple(sorted(set(a.alphabet) | set(b.alphabet)))
    index = {t: i for i, t in enumerate(alphabet)}
    dtype = id_dtype(len(alphabet))
    map_a = np.array([index[t] for t in a.alphabet], dtype=dtype)
    map_b = np.array([index[t] for t in b.alphabet], dtype=dtype)
    ids = np.concatenate([map_a[a.ids], map_b[b.ids]], axis=axis - 1)
    return tuple(dims), ids, alphabet


def concat_h(a: Matrix2D, b: Matrix2D) -> Matrix2D:
    """Horizontal concatenation: glue b to the right of a (row counts match)."""
    if a.rows != b.rows:
        raise RowMismatch(
            f"horizontal concatenation needs equal row counts, "
            f"got {a.rows} and {b.rows}"
        )
    (rows, cols), ids, alphabet = concat_ids(a, b, 2)
    return Matrix2D(rows, cols, ids, alphabet)


def concat_v(a: Matrix2D, b: Matrix2D) -> Matrix2D:
    """Vertical concatenation: glue b below a (column counts match)."""
    if a.cols != b.cols:
        raise ColMismatch(
            f"vertical concatenation needs equal column counts, "
            f"got {a.cols} and {b.cols}"
        )
    (rows, cols), ids, alphabet = concat_ids(a, b, 1)
    return Matrix2D(rows, cols, ids, alphabet)


def submatrix(m: Matrix2D, i1: int, j1: int, i2: int, j2: int) -> Matrix2D:
    """The factor M[i1..i2][j1..j2] (1-based, inclusive): a copy of that
    slice of the ids, renumbered into the letters it holds."""
    if not (1 <= i1 <= i2 <= m.rows and 1 <= j1 <= j2 <= m.cols):
        raise OutOfBounds(
            f"rectangle ({i1},{j1})..({i2},{j2}) outside {m.rows}x{m.cols}"
        )
    ids = m.ids[i1 - 1 : i2, j1 - 1 : j2]
    seen = np.zeros(len(m.alphabet), dtype=bool)
    seen[ids] = True
    letters = np.flatnonzero(seen).tolist()
    # the alphabet is sorted, so the letters kept keep their order
    ids = (np.cumsum(seen) - 1)[ids] if len(letters) < len(m.alphabet) else ids.copy()
    return Matrix2D(i2 - i1 + 1, j2 - j1 + 1, ids, tuple(map(m.alphabet.__getitem__, letters)))


# ---------------------------------------------------------------------------
# exact distinct-window ranking
# ---------------------------------------------------------------------------


#: the counting rank marks every possible pair id in a bool array and reads
#: each pair's rank from a table over that range; up to this many entries
#: (512 KiB) the table holds int64, the labels' dtype, so one gather gives
#: the labels with no widening copy. A larger table holds int32 ranks (ids
#: stay far below 2^31) and is widened after the gather: half the bytes, so
#: the peak RSS of the benchmark's measure-mix worker stays where it was
#: (38.3 MB; int64 tables up to 1 MiB raised it to 39.3), and short of the
#: 4 MiB from which numpy advises huge pages, which a sparse scatter would
#: touch in 2 MiB pages. Widening a 2^16-2^17-entry table's gather cost less
#: in a replay of measure-mix's ranks than an int64 table did
_INT64_TABLE = 1 << 16

#: the counting rank beats the packed-key sort while the pair-id range is at
#: most ``_COUNTING_RANGE`` times the number of pairs, or, up to a range of
#: ``_SMALL_PASS_SPAN``, ``_SMALL_PASS_RANGE`` times: so up to 32 times up to
#: 4,096 pairs, 16 times at 8,192 and 8 from 16,384. On the recorded ranks
#: of the benchmark's measure-mix delta jobs (about 4,500 a seed), each
#: timed alone on both paths (min of 5), counting took 0.5-0.9 times the
#: sort's time at 12-32 times the pairs from 2,048 to 8,192 pairs and 0.7
#: at 8 times at 16,384. Replayed in order (min of 10 alternating rounds, a
#: 2-core VM), the calls of two seeds took 53.4 and 51.1 ms with this rule
#: against 57.5 and 57.6 ms with 8 times for every size; 24 or 48 times in
#: place of 32 were within 1% of it
_COUNTING_RANGE = 8
_SMALL_PASS_RANGE = 32
_SMALL_PASS_SPAN = 1 << 17


def _counting(n: int, span: int) -> bool:
    """Whether ``_dense_rank`` ranks ``n`` ids below ``span`` by counting."""
    return span <= _COUNTING_RANGE * n or span <= min(_SMALL_PASS_RANGE * n, _SMALL_PASS_SPAN)


def _pair_rank(
    a: np.ndarray, a_range: int, b: np.ndarray, b_range: int, held: int = 1, scale: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Dense int64 ranks of the element-wise pairs (a, b), ids in value
    order, each times ``scale``, and the sorted distinct pair ids
    a * b_range + b (one per rank); ``a`` holds ids below ``a_range``, each
    times ``held``, and ``b`` ids below ``b_range``.

    ``held`` and ``scale`` are 1 or ``b_range``: a chain of
    ``rank_windows``' densest walk that needs counts only keeps its labels
    times ``b_range``, so that each pass after its first builds its pair
    ids with one add, and that walk yields those labels as None."""
    if held > 1:
        return _dense_rank(np.add(a, b), a_range * b_range, scale)
    combo = np.multiply(a, b_range, dtype=np.int64)
    combo += b
    return _dense_rank(combo, a_range * b_range, scale)


def _dense_rank(
    combo: np.ndarray, span: int, scale: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Dense int64 ranks of the int64 ids ``combo`` (below ``span``) in
    value order, each times ``scale``, and the sorted distinct ids (one per
    rank). ``scale`` is 1 but for a counts-only chain of ``rank_windows``'
    densest walk, which keeps its labels times its base range so that its
    next pair ids come from one add (``_pair_rank``), and which yields
    those labels as None.

    A range dense enough for ``_counting`` is marked in a bool array, and
    the ranks are read from a table over the range: one of int64 holds them
    times ``scale``, one of int32 holds them as they are and the widening
    multiplies them (a scaled rank may pass 2^31). A sparser range is
    sorted once as packed keys id << shift | position, whose low ``shift``
    bits hold the position: a run of equal ids is one rank, scattered back
    to the positions in its low bits, and the id of each run is a distinct
    id. Keys that would pass 63 bits (grids of about 2^21 cells) go to
    np.unique instead. Those two multiply the ranks by ``scale``."""
    n = combo.size
    if _counting(n, span):
        seen = np.zeros(span, dtype=bool)
        seen[combo] = True
        values = seen.nonzero()[0]
        # only the marked entries of the table are written and read
        if span <= _INT64_TABLE:
            ids = np.empty(span, dtype=np.int64)
            ids[values] = np.arange(0, values.size * scale, scale)
            return ids.take(combo), values
        ids = np.empty(span, dtype=np.int32)
        ids[values] = np.arange(values.size, dtype=np.int32)
        return np.multiply(ids[combo], scale, dtype=np.int64), values
    shift = (n - 1).bit_length()
    if (span - 1).bit_length() + shift > 63:
        values, labels = np.unique(combo, return_inverse=True)
        labels = labels.reshape(combo.shape).astype(np.int64, copy=False)
        return (labels * scale if scale > 1 else labels), values
    key = combo.reshape(-1) << shift
    key |= np.arange(n)
    key.sort()
    ids = key >> shift
    start = np.empty(n, dtype=bool)  # where a run of equal ids starts
    start[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=start[1:])
    values = ids[start]
    start[:1] = False  # so the first run's rank is 0
    key &= (1 << shift) - 1  # the positions
    ranks = np.cumsum(start)
    if scale > 1:
        ranks *= scale
    labels = np.empty(n, dtype=np.int64)
    labels[key] = ranks
    return labels.reshape(combo.shape), values


def _one_way(values: np.ndarray, b_range: int) -> bool:
    """Whether no two of the sorted distinct pair ids ``values`` of a
    ``_pair_rank`` share their left id: each left id goes with one right id."""
    left = values // b_range
    return not (left[1:] == left[:-1]).any()


#: the suffix sort of a chain of extent n costs about this many passes per
#: bit of n (ceil(log2 n) bits): at a switch after 11 passes per bit it took
#: the time of 5-9 passes per bit on the 1 x 1024 to 1 x 65536 strings
#: phlin(identity(32..256)) and 4-9 on the first column chains of
#: identity(128), identity(256) and a blocky 256 x 256 grid (medians of 15;
#: passes timed over the chain before the switch). So a counts-only chain
#: sorts, after ceil(log2 n) passes, once it would leave more passes than
#: that (``rank_windows``). 11 keeps every chain of extent up to 85 on
#: passes (it never leaves 11 passes per bit), so the step ledgers of grids
#: that size stay as they were; a constant of 3 made identity(64) 26%
#: slower, as its chains end soon after the switch by determinism
_SORT_AFTER = 11


def _chain_counts(
    grid: np.ndarray, axis: int, id_range: int, budget: WorkBudget, what: str
) -> memoryview:
    """The number of distinct substrings of each length k (index k, 0 to n)
    of the lines of the id grid ``grid`` along ``axis`` (every id below
    ``id_range`` occurs), from one prefix-doubling suffix sort with LCPs.

    The lines are laid out one after another, each closed by an end id of
    its own. Level h ranks the first 2^h ids of every suffix; the levels
    double until every suffix has a rank of its own, which the distinct ends
    bring about. The LCP of each suffix with the one sorted before it is
    lifted over the levels, top down, and the length-k substrings are the
    suffixes of length >= k whose LCP is below k. Each level and each LCP
    round charges the text's length to ``budget`` under ``what`` first."""
    n = grid.shape[axis]
    lines = np.moveaxis(grid, axis, -1).reshape(-1, n)
    size = lines.size + len(lines)
    budget.charge(size, what)
    ends = np.arange(id_range, id_range + len(lines))[:, None]
    levels = [np.concatenate((lines, ends), axis=1, dtype=np.int32).reshape(-1)]
    count = id_range + len(lines)
    while count < size:
        budget.charge(size, what)
        h = 1 << (len(levels) - 1)
        pairs = np.multiply(levels[-1], count + 1, dtype=np.int64)
        pairs[: size - h] += levels[-1][h:] + 1  # 0 past the text's end
        ranks, values = _dense_rank(pairs, count * (count + 1))
        levels.append(ranks.astype(np.int32))
        count = values.size
    order = np.empty(size, dtype=np.int32)  # the suffixes in sorted order
    order[levels[-1]] = np.arange(size, dtype=np.int32)
    lcp = np.zeros(size, dtype=np.int32)  # 0 for the first suffix
    prev, this, common = order[:-1], order[1:], lcp[1:]
    levels.pop()  # no two suffixes share that many first ids
    while levels:
        budget.charge(size, what)
        ranks = levels.pop()
        common += (ranks[prev + common] == ranks[this + common]) << len(levels)
    # an end sorts after every id, so no suffix sorts between two that share
    # their first k ids; the LCP of a suffix is at most its length
    length = n - order % (n + 1)
    counts = np.bincount(lcp + 1, minlength=n + 2) - np.bincount(length + 1, minlength=n + 2)
    # indexing makes one Python int per count read, not one per length
    return memoryview(np.cumsum(counts))


@dataclass(frozen=True)
class ShapeBox:
    """Every window shape of a grid with extents ``dims``, or with ``cubes``
    every cube (k, ..., k). ``rank_windows`` walks every shape without
    listing them; iterating gives the shapes in the order it yields them."""

    dims: tuple[int, ...]
    cubes: bool = False

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if self.cubes:
            return ((k,) * len(self.dims) for k in range(1, min(self.dims) + 1))
        ranges = (range(1, n + 1) for n in reversed(self.dims))
        return (s[::-1] for s in product(*ranges))


def rank_windows(
    grid: np.ndarray,
    wanted: Iterable[Sequence[int]] | ShapeBox,
    budget: WorkBudget | None,
    what: Sequence[str],
    stop: Callable[[tuple[int, ...]], bool] | None = None,
    densest: bool = False,
    horizon: Callable[[tuple[int, ...], int], int] | None = None,
) -> Iterator[tuple[tuple[int, ...], np.ndarray | memoryview | None, int]]:
    """Yield (shape, labels, count) for every wanted window shape of an id
    grid with any number of axes.

    ``labels`` holds one dense id per window position; two windows carry the
    same id iff their contents are equal, and ``count`` is the number of
    ids. The last axis is extended first: each shape comes from its
    predecessor by one ranking pass along one axis, which charges the new
    window count to ``budget`` (if any) under ``what[axis]``. Shapes are
    yielded in ascending order of their reversed tuples, and only the passes
    on the way to a wanted shape are made.

    ``stop`` is asked before every pass with the shape it would rank, which
    is (1, ..., 1, k, suffix) with k > 1, so the chain's axis is the number
    of leading extents equal to 1; when it answers true the chain along
    that axis ends there, so neither that shape nor any later shape of the
    chain, nor any shape reached through them, is ranked or yielded.

    ``densest`` is set by ``densest_shape``'s walk over every shape, which
    needs a budget and reads counts only, and does three things. A chain
    also ends, unyielded, at the first shape whose pass has no more windows
    than the shape before and pairs each window of the shape before (that
    has a next slab) with one next slab only (the determinism stop). A
    chain whose shapes need counts only, one along the first axis or along
    an axis whose earlier extents are all 1 (no shape is reached from it),
    keeps its labels multiplied by its base range (the id range of the
    shape it starts from), so each pass after its first builds its pair ids
    with one add (``_pair_rank``), and it yields every shape with labels
    None. And when every shape is wanted, as a ``ShapeBox`` without
    ``cubes``, and ``horizon(shape, axis)`` gives the first extent at which
    ``stop`` would end the chain of ``shape``, such a chain of extent n
    counts the rest of its shapes from one ``_chain_counts`` of the labels
    of its last pass, divided back by the base range (module docstring),
    once ``stop`` lets it go on to a shape (1, ..., 1, k, suffix) with k >=
    ceil(log2 n) + 2 and both the extents left before the horizon and the
    passes its count would take to reach its window count, at the growth of
    its last pass, exceed ``_SORT_AFTER * ceil(log2 n)``. It then yields
    that shape with labels a memoryview whose item j is the count of the
    shape j extents on, up to extent n, and count the first of them, and
    ends; the reader asks its stop itself. A chain too short ever to leave
    that many passes does not read the rule: the test that would send it
    there is the one that sets up a chain's first pass.
    """
    dims = grid.shape
    if isinstance(wanted, ShapeBox) and not wanted.cubes:
        tree: dict | int = dims[-1]
    else:
        tree = {}  # last extent -> ... -> second extent -> {first: None}
        for shape in wanted:
            node = tree
            for k in reversed(shape[1:]):
                node = node.setdefault(k, {})
            node[shape[0]] = None
        if not tree:
            return

    def extend(axis: int, base: np.ndarray, base_range: int, node, suffix: tuple):
        # node maps the wanted extents along ``axis`` to the node below; an
        # int t stands for every extent up to t, each over every shape below
        every = type(node) is int
        head = (1,) * axis
        cur, count = base, base_range
        # every shape on the chain is (1, ..., 1, k, suffix): nothing below it
        # but extents of 1, so a shape is yielded without a walk below
        flat = axis == 0 or every and prod(dims[:axis]) == 1
        # densest reads counts only: such a chain yields None for its labels
        # and keeps them times base_range from its first pass on
        scaled = densest and flat
        due = 2  # the next extent whose pass reads or updates the pass state
        for k in range(1, (node if every else max(node)) + 1):
            shape = head + (k,) + suffix
            if k > 1:
                if stop is not None and stop(shape):
                    return
                if k == due:
                    if k == 2:
                        # the chain's first pass: the state of its passes,
                        # which a chain that ends before it does not build
                        n = base.shape[axis]
                        lead = (slice(None),) * axis  # index prefix reaching ``axis``
                        lines = base.size // n  # a pass of width w ranks lines * w windows
                        label = what[axis]
                        scale = base_range if scaled else 1
                        held = 1  # what the labels in cur are multiplied by
                        due = 0
                        if scaled and every and horizon is not None:
                            bits = (n - 1).bit_length()
                            least = _SORT_AFTER * bits  # the sort's cost in passes
                            # only a chain that can leave more than that
                            # after ceil(log2 n) passes reads the sort rule
                            if n - bits - 1 > least:
                                due = bits + 1
                    else:
                        # the sort rule, from extent ceil(log2 n) + 2 on. At
                        # the growth of its last pass, the count reaches the
                        # window count lines * (n - j + 1) in t passes, t *
                        # (growth + lines) >= lines * (n - k + 2) - count;
                        # the horizon, which costs more, is read second
                        if k > bits + 1:
                            rate = count - last + lines
                            if (
                                rate <= 0 or lines * (n - k + 2) - count > least * rate
                            ) and horizon(shape, axis) - k > least:
                                # runs[j]: the distinct runs of j windows of
                                # extent k - 1, one per window of extent k - 2 + j
                                runs = _chain_counts(cur // held, axis, count, budget, label)
                                yield shape, runs[2:-1], runs[2]
                                return
                        last, due = count, k + 1
                width = n - k + 1
                if budget is not None:
                    budget.charge(lines * width, label)
                cur, values = _pair_rank(
                    cur[lead + (slice(0, width),)],
                    count,
                    base[lead + (slice(k - 1, n),)],
                    base_range,
                    held,
                    scale,
                )
                held = scale
                if densest and values.size <= count and _one_way(values, base_range):
                    return
                count = values.size
            if not (every or k in node):
                continue
            if flat:
                yield shape, None if scaled else cur, count
            else:
                below = dims[axis - 1] if every else node[k]
                yield from extend(axis - 1, cur, count, below, (k,) + suffix)

    yield from extend(grid.ndim - 1, grid, int(grid.max()) + 1, tree, ())


def densest_shape(
    grid: np.ndarray,
    cubes_only: bool,
    budget: WorkBudget,
    what: Sequence[str],
) -> tuple[Fraction, tuple[int, ...]]:
    """(value, shape) for the window shape of an id grid with the most
    distinct windows per unit of volume (cubes (k, ..., k) only if
    ``cubes_only``).

    ``value`` is count(shape) / vol(shape), maximal over the shapes; ties go
    to the smallest volume, then to the smallest shape tuple.

    Windows are ranked by ``rank_windows``' passes, whose chains end as soon
    as no shape left on them can change the answer. Both prunings are
    exact:

    * bound stop: count(s)/vol(s) <= W(s)/vol(s) (W(s) = prod(n_i - k_i +
      1) windows), which falls along every axis, so a chain ends once that
      bound is strictly below the best value so far; ties can still reach
      the smallest shape. With ``cubes_only`` the bound is read on the
      cube the chain leads to.
    * determinism (not with ``cubes_only``): a chain ends at the first pass
      from t to t + e_a that pairs each window of t with one next slab only.
      Every shape left on the chain, and every shape reached from one
      through the axes before, has at most as many windows as its t-part,
      which was ranked or pruned, and a larger volume (module docstring), so
      its value is strictly lower. With ``cubes_only`` the t-parts of the
      cubes left are not cubes, so they bound nothing.

    The shapes above a saturated one need no rule of their own. Once a
    shape s has count(s) >= W(s) - 1 (at most one pair of equal windows),
    each shape t above it has W(t) <= W(s) - 1 <= count(s) and vol(t) >
    vol(s), so W(t)/vol(t) < count(s)/vol(s) <= best. s is yielded before
    the stop at t is asked (shapes come in ascending order of their
    reversed tuples), so the bound stop ends t's chain at t.

    A chain that needs counts only (along the first axis, or along an axis
    whose earlier extents are all 1) may switch to one suffix sort that
    counts the rest of its shapes at once (``rank_windows``), given its
    horizon: the first extent at which the bound stop would end it, in
    closed form, as along the chain W is linear in the extent and so is
    vol. The sorted counts are the ones its passes would give, and they are
    read here in one loop, in chain order, through the same stop
    inequality, gain test and tie-break, so value, shape and tie-break stay
    the same; past the switch the determinism test is not made, which only
    means the chain ends by the bound stop, which is exact. The switch
    reads only the input and the best value so far, which depends only on
    the input, so step ledgers stay deterministic. It is off with
    ``cubes_only``.
    """
    sides = tuple(n + 1 for n in grid.shape)
    best_count, best_vol, best_shape = 0, 1, ()

    def stop(shape: tuple[int, ...]) -> bool:
        if cubes_only:
            # every wanted shape left on this chain is >= the next cube
            shape = (shape[-1],) * len(shape)
        return prod(map(sub, sides, shape)) * best_vol < best_count * prod(shape)

    def along(shape: tuple[int, ...], axis: int) -> tuple[int, int, int]:
        # (end, across, unit): the shape of extent j on the chain of
        # ``shape`` along ``axis`` has (end - j) * across windows and
        # volume j * unit
        k, end = shape[axis], sides[axis]
        return end, prod(map(sub, sides, shape)) // (end - k), prod(shape) // k

    def horizon(shape: tuple[int, ...], axis: int) -> int:
        # the least extent j with (end - j) * across * best_vol < best_count
        # * j * unit: the bound stop's inequality, linear in j
        end, across, unit = along(shape, axis)
        return end * across * best_vol // (best_count * unit + across * best_vol) + 1

    walk = rank_windows(
        grid, ShapeBox(grid.shape, cubes_only), budget, what, stop, not cubes_only, horizon
    )
    for shape, counts, count in walk:
        # the densest walk yields labels None but for a switched chain's
        # counts; the cube walk yields labels
        if counts is None or cubes_only:
            vol = prod(shape)
            gain = count * best_vol - best_count * vol
            if gain > 0 or gain == 0 and (vol, shape) < (best_vol, best_shape):
                best_count, best_vol, best_shape = count, vol, shape
            continue
        # a chain switched to the suffix sort: counts[j] is the count of the
        # shape j extents past ``shape`` along its axis, up to its end
        axis = next(a for a, k in enumerate(shape) if k > 1)
        head, tail = shape[:axis], shape[axis + 1 :]
        end, across, unit = along(shape, axis)
        for k, count in zip(range(shape[axis], end), counts):
            vol = k * unit
            if (end - k) * across * best_vol < best_count * vol:
                break
            gain = count * best_vol - best_count * vol
            if gain >= 0:
                here = head + (k,) + tail
                if gain > 0 or (vol, here) < (best_vol, best_shape):
                    best_count, best_vol, best_shape = count, vol, here
    return Fraction(best_count, best_vol), best_shape


def _check_shape(m: Matrix2D, k1: int, k2: int) -> None:
    if not (1 <= k1 <= m.rows and 1 <= k2 <= m.cols):
        raise OutOfBounds(
            f"factor shape {k1}x{k2} does not fit in {m.rows}x{m.cols}"
        )


class WindowIds:
    """The content id of every window of a matrix, charged to no budget.

    ``labels(h, w)[i][j]`` is the label of the h x w window whose top-left
    cell is (i + 1, j + 1), as ``rank_windows`` gives it: two windows
    of a shape share a label iff their contents are equal, and labels follow
    the row-major order of the token tuples, so ``(h, w, label)`` sorts like
    ``(h, w, token grid)``. Every shape is ranked by one ``rank_windows``
    walk when the table is built; a shape's labels are turned into lists
    when first asked for, and kept. A matrix whose table would hold more
    than ``MAX_CELLS`` labels raises ``TooLarge`` before any is built."""

    def __init__(self, m: Matrix2D):
        needed = m.rows * (m.rows + 1) // 2 * (m.cols * (m.cols + 1) // 2)
        if needed > MAX_CELLS:
            raise TooLarge(
                f"the window ids of a {m.rows}x{m.cols} matrix are {needed} labels, "
                f"over the {MAX_CELLS} cap"
            )
        walk = rank_windows(m._grid, ShapeBox((m.rows, m.cols)), None, RANKING_2D)
        self._ranked: dict[tuple[int, ...], tuple[np.ndarray, int]] = {
            shape: (labels, count) for shape, labels, count in walk
        }
        self._lists: dict[tuple[int, int], list[list[int]]] = {}

    def labels(self, h: int, w: int) -> list[list[int]]:
        """The labels of shape (h, w), one list per row of positions."""
        got = self._lists.get((h, w))
        if got is None:
            got = self._lists[h, w] = self._ranked[h, w][0].tolist()
        return got

    def count(self, h: int, w: int) -> int:
        """The number of distinct h x w windows."""
        return self._ranked[h, w][1]


def factor_count(
    m: Matrix2D, k1: int, k2: int, budget: WorkBudget | None = None
) -> int:
    """P_M(k1, k2): the number of distinct k1 x k2 factors of M."""
    _check_shape(m, k1, k2)
    return next(rank_windows(m._grid, [(k1, k2)], ensure_budget(budget), RANKING_2D))[2]


@dataclass(frozen=True)
class Factor2D:
    """A distinct factor content plus all its occurrences (RMO top-lefts)."""

    shape: FactorShape
    content: TokenGrid
    occurrences: tuple[Position, ...]


def distinct_factors(
    m: Matrix2D, k1: int, k2: int, budget: WorkBudget | None = None
) -> tuple[Factor2D, ...]:
    """All distinct k1 x k2 factors, ordered by first occurrence in RMO.

    Each factor lists every occurrence position in RMO.
    """
    _check_shape(m, k1, k2)
    labels = next(rank_windows(m._grid, [(k1, k2)], ensure_budget(budget), RANKING_2D))[1]
    occs: list[list[Position]] = [[] for _ in range(int(labels.max()) + 1)]
    for i, row in enumerate(labels.tolist(), 1):
        for j, lab in enumerate(row, 1):
            occs[lab].append((i, j))
    grid = m.tokens()
    out = []
    for occ in sorted(occs):  # by first occurrence: no two share one
        i, j = occ[0]
        content = tuple(row[j - 1 : j - 1 + k2] for row in grid[i - 1 : i - 1 + k1])
        out.append(Factor2D(FactorShape(k1, k2), content, tuple(occ)))
    return tuple(out)


def _box_mask(shape: Sequence[int], dims: Sequence[int]) -> int:
    """Bitmask (over the cells of a grid with extents ``dims``, row-major
    bit order) of the box of extents ``shape`` at the first cell; shifting
    it left by a cell's flat index moves the box's corner to that cell."""
    mask, stride = 1, 1
    for k, n in zip(reversed(shape), reversed(dims)):
        mask = sum(mask << (r * stride) for r in range(k))
        stride *= n
    return mask


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
# line 1:  2d <m> <n>
# then m lines of n whitespace-separated tokens. Blank lines are ignored
# everywhere; a line starting with '#' is a comment unless it splits into
# exactly n tokens while matrix rows are still expected (so alphabets that
# contain '#' round-trip).


def format_matrix(m: Matrix2D) -> str:
    lines = [f"2d {m.rows} {m.cols}"]
    lines.extend(" ".join(row) for row in m.tokens())
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix2D:
    lines = text.splitlines()
    header: tuple[int, int] | None = None
    grid: list[list[str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if line.startswith("#"):
                continue
            if len(parts) != 3 or parts[0] != "2d":
                raise ParseError(
                    f"line {lineno}: expected header '2d <m> <n>', got {line!r}"
                )
            try:
                rows, cols = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad dimensions") from exc
            if rows < 1 or cols < 1:
                raise ParseError(f"line {lineno}: dimensions must be >= 1")
            header = (rows, cols)
            continue
        if len(grid) < header[0]:
            if line.startswith("#") and len(parts) != header[1]:
                continue
            if len(parts) != header[1]:
                raise ParseError(
                    f"line {lineno}: expected {header[1]} tokens, "
                    f"got {len(parts)}"
                )
            grid.append(parts)
        elif not line.startswith("#"):
            raise ParseError(f"line {lineno}: trailing content {line!r}")
    if header is None:
        raise ParseError("missing '2d <m> <n>' header")
    if len(grid) != header[0]:
        raise ParseError(f"expected {header[0]} rows, got {len(grid)}")
    return Matrix2D.from_tokens(grid)


def read_utf8(path: str | Path) -> str:
    """The text of the file at ``path``, read as UTF-8 whatever the locale;
    bytes that are not UTF-8 raise ParseError naming the first one's offset.
    Every file format is read through it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start} is not UTF-8 ({exc.reason})") from None


def write_utf8(path: str | Path, text: str) -> None:
    """Write ``text`` to the file at ``path`` as UTF-8, whatever the locale."""
    Path(path).write_text(text, encoding="utf-8")


def read_matrix(path: str | Path) -> Matrix2D:
    return parse_matrix(read_utf8(path))


def write_matrix(m: Matrix2D, path: str | Path) -> None:
    write_utf8(path, format_matrix(m))
