"""Macro schemes: represent a matrix by explicit cells plus copied phrases.

A phrase copies a target rectangle from a source rectangle of the same shape
anywhere in the matrix (sources may overlap targets and other phrases). The
scheme is valid when targets plus explicit cells partition the grid, sources
stay in bounds, and following cell -> source-cell pointers always reaches an
explicit cell (no cycles). Size = #explicit + #phrases.

analyze_boxes checks and resolves schemes over any number of axes. It writes
each box's step (source cell minus cell) into an int32 array with one slice,
checks the partition once (the part volumes add up to the grid and no cell
is left free), then resolves every chain at once by pointer jumping, as in
list ranking (Wyllie, 1979): each round replaces every cell's pointer by its
pointer's pointer, so a scheme of N cells whose longest chain has L hops is
resolved in O(N log L) array work. The steps turn into pointers and the
rounds jump in place, in the same array, one slice at a time; a pointer
read from a slice that has already jumped only lies further down its chain.
After each round one gather through a code table (a token's id at an
explicit cell, a sentinel elsewhere; one byte a cell below 256 letters)
tells whether every chain has ended and, in the round where all have, reads
the tokens: its output is the decoded ids. So the run holds 4 + 2 bytes a
cell and one slice. validate_scheme, which drops the ids, gathers a table
that only marks the explicit cells, and sorts no alphabet. A box whose
source meets its own target copies a periodic block, as an overlapping copy
does in LZ77 decoding (Ziv and Lempel, 1977): a cell's chain stays in the
box for q shifts, q the number that carries it out, so the cell's step is q
times the shift, written in place from one short count array per axis.
Chains then make one hop per box they pass (identity_scheme(1024): 1 round;
one shift a hop takes 11) and end at the same explicit cells. Boxes whose
longest in-box chain is below 4 hops keep the plain shift. Only when a check
fails does it replay the boxes in order, to name the same overlap, hole or
cycle cell (the first repeated cell on the one-shift chain of the smallest
cell that never reaches an explicit one) as a box-by-box, cell-by-cell check
would.

b_exact finds a smallest valid scheme by branch-and-bound over rectangle
partitions in row-major order; it is exponential and guarded by cell_limit.
Once a partition is complete it sources the copied parts one at a time, in
order, and after each candidate source walks only the chains that start in
that part: a chain of N cells that makes N hops without ending is a cycle.
The check is exact. Every chain that starts elsewhere already ended when its
own part was sourced (parts not yet sourced count as ends), so a new cycle
must pass through the new part, and the walk from its cell on the cycle
never ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add, floordiv, le, mul, sub
from typing import Callable, Mapping, Sequence

import numpy as np

from .budget import WorkBudget, ensure_budget, stop_node
from .core2d import (
    MAX_CELLS,
    Matrix2D,
    Position,
    WindowIds,
    _box_mask,
    factor_count,
    id_dtype,
    read_utf8,
    write_utf8,
)
from .errors import (
    BadParam,
    CyclicMap,
    NotPartition,
    OutOfBounds,
    OutOfBoundsSource,
    ParseError,
    ShapeTooLarge,
    TooLarge,
)
from .grammar2d import Grammar2D, first_occurrences, validate_grammar


@dataclass(frozen=True)
class Phrase:
    """Target rectangle (i1,j1)-(i2,j2) copied from the same-shape rectangle
    whose top-left corner is (si,sj). 1-based inclusive."""

    i1: int
    j1: int
    i2: int
    j2: int
    si: int
    sj: int


@dataclass(frozen=True)
class MacroScheme2D:
    rows: int
    cols: int
    explicit: Mapping[Position, str]
    phrases: tuple[Phrase, ...]

    @property
    def size(self) -> int:
        return len(self.explicit) + len(self.phrases)


@dataclass(frozen=True)
class SchemeCheck:
    """error is the name of the exception class decode() would raise."""

    ok: bool
    size: int
    error: str | None = None
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_ERRORS = {
    "BadParam": BadParam,
    "OutOfBounds": OutOfBounds,
    "OutOfBoundsSource": OutOfBoundsSource,
    "NotPartition": NotPartition,
    "CyclicMap": CyclicMap,
    "TooLarge": TooLarge,
}

_FREE = -(1 << 31)  # no shift between two cells of the cap is this small

#: cells one gather reads at once: numpy copies int32 indices to intp, so a
#: take over the whole grid would hold 8 bytes a cell beside it
_GATHER = 1 << 16


def _gather(src: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i] = src[index[i]]`` for the int32 ``index`` (every entry in
    range), a slice of ``_GATHER`` cells at a time; returns ``out``. "clip"
    writes unbuffered unless ``out`` overlaps ``src``: then numpy buffers
    one slice."""
    for lo in range(0, index.size, _GATHER):
        hi = lo + _GATHER
        src.take(index[lo:hi], out=out[lo:hi], mode="clip")
    return out


def _jump(root: np.ndarray) -> None:
    """One round of pointer jumping in place, ``root[c] = root[root[c]]``
    for every cell, a slice of ``_GATHER`` cells at a time. A pointer read
    from a slice that has already jumped lies further down the same chain,
    so the round takes each pointer at least as far as a round into a second
    array would, never past its chain's end (an end points to itself)."""
    _gather(root, root, root)


def _write_exits(
    view: np.ndarray, offset: tuple[int, ...], ext: tuple[int, ...], shift: int
) -> None:
    """Write into ``view``, a box of extents ``ext`` + 1 whose source is
    ``offset`` away (flat ``shift`` != 0), each cell's step out of the box:
    q times ``shift``, where q is the number of shifts that carry the cell
    out of the box. Along an axis q falls by one every |offset| cells
    towards the side the shift points to; a cell's q is the least over the
    axes. No temporary of the box's size is made."""
    least = np.minimum if shift > 0 else np.maximum  # of q * shift
    # No cell's q passes the corner cell's, the least over the axes of the
    # largest q along each; its step lands in the grid, so capping every
    # count there keeps each product in int32.
    cap = min((e + abs(o)) // abs(o) for o, e in zip(offset, ext) if o)
    first = True
    for a, (o, e) in enumerate(zip(offset, ext)):
        if o:
            # q = (cells between the cell and the exit side + |o|) // |o|
            n = abs(o)
            if o > 0:
                steps = np.arange(e + n, n - 1, -1, dtype=np.int32)
            else:
                steps = np.arange(n, e + n + 1, dtype=np.int32)
            steps //= n
            np.minimum(steps, cap, out=steps)
            steps *= shift
            steps = steps.reshape((1,) * a + (e + 1,) + (1,) * (len(ext) - a - 1))
            if first:
                view[...] = steps
                first = False
            else:
                least(view, steps, out=view)


def analyze_boxes(
    dims: tuple[int, ...],
    explicit: Mapping[tuple[int, ...], object],
    boxes: Sequence[tuple[tuple[int, ...], ...]],
    size: int,
    describe: Callable[[str, object], tuple[str, str]],
    budget: WorkBudget | None = None,
    *,
    ids: bool = True,
) -> tuple[SchemeCheck, tuple[np.ndarray, tuple[str, ...]] | None]:
    """The scheme check, written for any number of axes; ``_analyze`` is
    its 2D caller.

    ``boxes`` holds (lo, hi, src) corner triples, 1-based and inclusive. The
    cell cap is checked before anything is allocated; then ``budget``, when
    given, is charged one "scheme decode" step a cell, before any other
    check and before anything of the grid's size is allocated. On success
    returns the check and ``(ids, alphabet)``: ``ids`` holds, for each flat
    cell index, the id of the token at the explicit cell its copy chain ends
    at, one axis of ``id_dtype(len(alphabet))``, and ``alphabet`` is the
    sorted tokens of the explicit cells; with ``ids`` false (a check that
    drops them) it returns None there, and the rounds read a table that
    only marks the explicit cells, so no alphabet is sorted. Otherwise the
    check carries ``describe(fault, at)``, the error name and message for
    the first fault found: "dims", "cap", "explicit" (at: position, token,
    whether the token is invalid, whether the position is outside),
    "inverted", "target", "source" (at: box index), "overlap", "cycle" (at:
    flat cell index) or "holes" (at: uncovered count and first uncovered
    index).
    """

    def fail(fault: str, at: object = None):
        return SchemeCheck(False, size, *describe(fault, at)), None

    d = len(dims)
    if d < 1 or any(n < 1 for n in dims):
        return fail("dims")
    total = prod(dims)
    if total > MAX_CELLS:
        return fail("cap")
    if budget is not None:
        budget.charge(total, "scheme decode")
    strides = [prod(dims[a + 1 :]) for a in range(d)]
    origin = sum(strides)  # flat index of a position is sum(p * st) - origin

    def inside(lo: tuple[int, ...], hi: tuple[int, ...]) -> bool:
        """Are both corners of the box lo..hi (lo <= hi) in the grid?"""
        return len(lo) == len(hi) == d and min(lo) >= 1 and all(map(le, hi, dims))

    tokens: dict[int, str] = {}
    for pos, tok in explicit.items():
        pos = tuple(pos)
        bad_token = not tok or str(tok).split() != [str(tok)]
        if bad_token or not inside(pos, pos):
            return fail("explicit", (pos, tok, bad_token, not inside(pos, pos)))
        tokens[sum(map(mul, pos, strides)) - origin] = str(tok)
    cells = list(tokens)
    step = np.full(total, _FREE, dtype=np.int32)  # source cell minus cell
    step[cells] = 0  # an explicit cell ends its chain at itself
    grid = step.reshape(dims)
    cuts: list[tuple[slice, ...]] = []  # the boxes written so far
    shifts: list[int] = []  # and the flat shift of each

    def first_overlap() -> int | None:
        """The cell an in-order fill of ``cuts`` finds taken: in the first
        box that meets an earlier part, the first such cell in row-major
        order."""
        taken = np.zeros(dims, dtype=bool)
        taken.flat[cells] = True
        for cut in cuts:
            view = taken[cut]
            if view.any():
                at = np.unravel_index(int(view.argmax()), view.shape)
                return int(sum((c.start + a) * st for c, a, st in zip(cut, at, strides)))
            view[...] = True
        return None

    def bounds_fault(k: int, lo, hi):
        """Box k fails a bounds check: its fault, unless an earlier box
        overlaps."""
        cell = first_overlap()
        if cell is not None:
            return fail("overlap", cell)
        ext = tuple(map(sub, hi, lo))
        if min(ext, default=0) < 0:
            return fail("inverted", k)
        return fail("source" if inside(lo, hi) else "target", k)

    covered = len(cells)
    ones, threes = (1,) * d, (3,) * d
    for k, (lo, hi, src) in enumerate(boxes):
        ext = tuple(map(sub, hi, lo))
        if not (
            len(lo) == len(hi) == len(src) == d
            and min(ext) >= 0
            and min(lo) >= 1
            and min(src) >= 1
            and all(map(le, hi, dims))
            and all(map(le, map(add, src, ext), dims))
        ):
            return bounds_fault(k, lo, hi)
        cut = tuple(map(slice, map(sub, lo, ones), hi))
        view = grid[cut]
        shift = sum(map(mul, map(sub, src, lo), strides))
        # jump when some chain makes 4 hops in the box, i.e. |offset| <=
        # ext // 3 on every axis (the box then has 4 cells or more): shorter
        # ones cost more numpy calls than the rounds they save, and the size
        # test spares small boxes the per-axis one
        if (
            shift
            and view.size >= 4
            and all(map(le, map(abs, map(sub, src, lo)), map(floordiv, ext, threes)))
        ):
            _write_exits(view, tuple(map(sub, src, lo)), ext, shift)
        else:
            view.fill(shift)
        covered += view.size
        cuts.append(cut)
        shifts.append(shift)
    # the parts partition the grid iff their volumes add up and none is free
    if covered != total or step.min() == _FREE:
        cell = first_overlap()
        if cell is not None:
            return fail("overlap", cell)
        free = np.flatnonzero(step == _FREE)
        return fail("holes", (len(free), int(free[0])))
    # Pointer jumping: after t rounds root[c] is at least 2^t hops down c's
    # chain, or its end. Only explicit cells end chains (a self-copy points
    # to itself but is no end), and chains are shorter than total, so every
    # root is explicit after total.bit_length() rounds unless some chain
    # cycles. The steps become the first pointers in place.
    root = step
    for lo in range(0, total, _GATHER):
        part = root[lo : lo + _GATHER]
        part += np.arange(lo, lo + part.size, dtype=np.int32)
    # code[c]: the id of c's token at an explicit cell, else ``letters``. The
    # ids are encode_tokens' (the sorted alphabet's indices), looked up here
    # as the tokens were checked above: encode_tokens would check them again
    # and cost a small scheme's validate_scheme about 4 us more, about 7%.
    # Without ids every explicit cell has code 0 of 1 letter
    if ids:
        alphabet = tuple(sorted(set(tokens.values())))
        letters = len(alphabet)
        index = {tok: i for i, tok in enumerate(alphabet)}
        # the code ``letters`` needs one more id than the letters: a uint16
        # table from 256 letters, half the int32 bytes id_dtype would give it
        wide = 256 <= letters < 1 << 16
        code = np.full(total, letters, dtype=np.uint16 if wide else id_dtype(letters + 1))
        code[cells] = list(map(index.__getitem__, tokens.values()))
    else:
        letters = 1
        code = np.ones(total, dtype=bool)
        code[cells] = False
    out = np.empty_like(code)
    for _ in range(total.bit_length() + 1):
        _jump(root)
        if _gather(code, root, out).max() < letters:
            if not ids:
                return SchemeCheck(True, size), None
            return SchemeCheck(True, size), (out.astype(id_dtype(letters), copy=False), alphabet)
    # write the one-shift steps back and walk the chain of the first cell
    # that misses: it never meets an explicit cell, whose step is not read
    cur, seen = int(out.argmax()), set()
    for cut, shift in zip(cuts, shifts):
        grid[cut] = shift
    while cur not in seen:
        seen.add(cur)
        cur += int(step[cur])
    return fail("cycle", cur)


def _analyze(s: MacroScheme2D, budget: WorkBudget | None = None, ids: bool = True):
    """analyze_boxes in 2D terms: cells print as (i,j), phrases as Phrase."""

    def at(pos) -> str:
        return "(" + ",".join(map(str, pos)) + ")"

    def cell(f: int) -> str:
        return at((f // s.cols + 1, f % s.cols + 1))

    def describe(fault: str, where) -> tuple[str, str]:
        if fault == "dims":
            return "BadParam", f"scheme is {s.rows}x{s.cols}"
        if fault == "cap":
            return "TooLarge", f"{s.rows}x{s.cols} exceeds the {MAX_CELLS}-cell cap"
        if fault == "explicit":
            pos, token, bad_token, _ = where
            if bad_token:
                return "BadParam", f"bad token {token!r} at {at(pos)}"
            return "OutOfBounds", f"explicit cell {at(pos)} out of bounds"
        if fault == "inverted":
            return "BadParam", f"phrase corners inverted: {s.phrases[where]}"
        if fault == "target":
            return "OutOfBounds", f"phrase target out of bounds: {s.phrases[where]}"
        if fault == "source":
            return "OutOfBoundsSource", f"phrase source out of bounds: {s.phrases[where]}"
        if fault == "overlap":
            return "NotPartition", f"cell {cell(where)} covered twice"
        if fault == "holes":
            return "NotPartition", f"{where[0]} cells uncovered, first {cell(where[1])}"
        return "CyclicMap", f"copy chain through {cell(where)} never reaches an explicit cell"

    phrases = [((p.i1, p.j1), (p.i2, p.j2), (p.si, p.sj)) for p in s.phrases]
    return analyze_boxes((s.rows, s.cols), s.explicit, phrases, s.size, describe, budget, ids=ids)


def validate_scheme(s: MacroScheme2D, budget: WorkBudget | None = None) -> SchemeCheck:
    """The scheme's check. Charges rows * cols "scheme decode" steps as
    decode does, once the header passes the dims and cell-cap checks."""
    return _analyze(s, ensure_budget(budget), False)[0]


def decode(s: MacroScheme2D, budget: WorkBudget | None = None) -> Matrix2D:
    """The matrix the scheme represents; raises on invalid schemes. Charges
    rows * cols "scheme decode" steps once the header passes the dims and
    cell-cap checks, so a budget too small for the grid raises before any
    other fault of the scheme is looked for."""
    check, data = _analyze(s, ensure_budget(budget))
    if not check.ok:
        raise _ERRORS[check.error](check.message)
    return Matrix2D(s.rows, s.cols, *data)


def identity_scheme(n: int) -> MacroScheme2D:
    """A scheme of size 6 for the n x n identity matrix (any n >= 3): three
    explicit cells in the top-left corner, the rest of row 1 and column 1
    copied with a one-cell shift, and everything else copied from the
    diagonally shifted interior."""
    if n < 1:
        raise BadParam(f"n must be >= 1, got {n}")
    if n <= 2:
        cells = {
            (i, j): ("1" if i == j else "0")
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        return MacroScheme2D(n, n, cells, ())
    explicit = {(1, 1): "1", (1, 2): "0", (2, 1): "0"}
    phrases = (
        Phrase(1, 3, 1, n, 1, 2),
        Phrase(3, 1, n, 1, 2, 1),
        Phrase(2, 2, n, n, 1, 1),
    )
    return MacroScheme2D(n, n, explicit, phrases)


def from_grammar(g: Grammar2D) -> MacroScheme2D:
    """Scheme with one explicit cell per terminal variable and one phrase per
    secondary occurrence or collapsed run, sourced at the variable's first
    (preorder) occurrence. Its size never exceeds the grammar's."""
    info = validate_grammar(g)
    dims = info.dims
    explicit: dict[Position, str] = {}
    phrases: list[Phrase] = []
    primary: dict[str, Position] = {}
    for event, name, top, left, key, corner in first_occurrences(g, dims):
        rows, cols = dims[name]
        if event == "again":
            si, sj = primary[name]
            phrases.append(
                Phrase(top, left, top + rows - 1, left + cols - 1, si, sj)
            )
        elif event == "open":
            primary[name] = (top, left)
            if key[0] is not None:
                explicit[(top, left)] = key[0]
        elif key[2]:  # a run: its remaining copies come from its first one
            phrases.append(
                Phrase(*corner, top + rows - 1, left + cols - 1, top, left)
            )
    return MacroScheme2D(info.rows, info.cols, explicit, tuple(phrases))


# ---------------------------------------------------------------------------
# exact smallest macro scheme
# ---------------------------------------------------------------------------


_SEARCH_CAP = 5_000_000  # "scheme search" ticks b_exact makes before it gives up


def b_exact(
    m: Matrix2D,
    cell_limit: int = 9,
    budget: WorkBudget | None = None,
) -> MacroScheme2D:
    """A smallest valid macro scheme for ``m``.

    Branch and bound over rectangle partitions: the first uncovered cell in
    row-major order is always the top-left of its part; 1x1 parts are made
    explicit (never worse than a 1x1 copy), larger parts require the same
    content somewhere else in the matrix and get their sources chosen by a
    nested search that walks only the new part's copy chains (module
    docstring).
    """
    total = m.area
    if total > cell_limit:
        raise TooLarge(
            f"b_exact is exponential; {m.rows}x{m.cols} has {total} cells "
            f"> cell_limit={cell_limit}"
        )
    budget = ensure_budget(budget)
    rows, cols = m.rows, m.cols
    windows = WindowIds(m)
    occ_memo: dict[tuple[int, int, int, int], list[Position]] = {}

    def occurrences(i: int, j: int, h: int, w: int) -> list[Position]:
        key = (i, j, h, w)
        if key in occ_memo:
            return occ_memo[key]
        labels = windows.labels(h, w)
        want = labels[i][j]
        out = [
            (a, b)
            for a, row in enumerate(labels)
            for b, label in enumerate(row)
            if label == want and (a, b) != (i, j)
        ]
        occ_memo[key] = out
        return out

    max_copy_area = 1
    for h in range(1, rows + 1):
        for w in range(1, cols + 1):
            if h * w > 1 and windows.count(h, w) < (rows - h + 1) * (cols - w + 1):
                max_copy_area = max(max_copy_area, h * w)

    full_mask = (1 << total) - 1
    rects = [[_box_mask((h, w), (rows, cols)) for w in range(1, cols + 1)] for h in range(1, rows + 1)]
    parts: list[tuple[int, int, int, int]] = []  # (i, j, h, w), 0-based
    source = [-1] * total  # each cell's source cell; -1: explicit or not yet copied
    nodes = 0
    stop = stop_node(budget, _SEARCH_CAP)

    def tick() -> None:
        """Count one "scheme search" step. The steps are charged in one call,
        here at ``stop`` (the budget first, then the cap) or once the search
        ends, so the budget raises as if each node charged its own."""
        nonlocal nodes
        nodes += 1
        if nodes == stop:
            budget.charge(nodes, "scheme search")
            raise ShapeTooLarge(f"scheme search exceeded work_limit={_SEARCH_CAP}")

    def scheme() -> MacroScheme2D:
        """The scheme of ``parts``, each copied part sourced by ``source``."""
        explicit: dict[Position, str] = {}
        phrases: list[Phrase] = []
        for i, j, h, w in parts:
            if h * w == 1:
                explicit[(i + 1, j + 1)] = m.at(i + 1, j + 1)
            else:
                si, sj = divmod(source[i * cols + j], cols)
                phrases.append(Phrase(i + 1, j + 1, i + h, j + w, si + 1, sj + 1))
        return MacroScheme2D(rows, cols, explicit, tuple(phrases))

    every = {(i, j): m.at(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)}
    best = MacroScheme2D(rows, cols, every, ())

    def ends(cell: int) -> bool:
        """Does the copy chain from ``cell`` end within ``total`` hops?"""
        for _ in range(total):
            cell = source[cell]
            if cell < 0:
                return True
        return False

    def choose(copied: list[tuple[int, int, int, int]], k: int) -> bool:
        """Source copied[k:] so that every chain ends; the first success
        becomes the best scheme."""
        nonlocal best
        if k == len(copied):
            best = scheme()
            return True
        tick()
        i, j, h, w = copied[k]
        cells = [(i + a) * cols + j + b for a in range(h) for b in range(w)]
        found = False
        for si, sj in occurrences(i, j, h, w):
            shift = (si - i) * cols + sj - j
            for c in cells:
                source[c] = c + shift
            if all(map(ends, cells)) and choose(copied, k + 1):
                found = True
                break
        for c in cells:
            source[c] = -1
        return found

    def dfs(covered: int) -> None:
        tick()
        if covered == full_mask:
            copied = [p for p in parts if p[2] * p[3] > 1]
            if len(copied) < len(parts):  # with no explicit cell every chain is a cycle
                choose(copied, 0)
            return
        free = total - bin(covered).count("1")
        if len(parts) + -(-free // max_copy_area) >= best.size:
            return
        idx = ((~covered) & (covered + 1)).bit_length() - 1  # lowest free cell
        i, j = divmod(idx, cols)
        options = []
        for h in range(1, rows - i + 1):
            for w in range(1, cols - j + 1):
                mask = rects[h - 1][w - 1] << idx
                if mask & covered:
                    break  # every wider part holds this overlap too
                if h * w > 1 and not occurrences(i, j, h, w):
                    continue
                options.append((h * w, h, w, mask))
        options.sort(key=lambda o: (-o[0], o[1], o[2]))
        for _, h, w, mask in options:
            parts.append((i, j, h, w))
            dfs(covered | mask)
            parts.pop()

    try:
        dfs(0)
    finally:
        if nodes < stop:  # below stop the budget has room for every node
            budget.charge(nodes, "scheme search")
    return best


def unique_square_certificate(
    m: Matrix2D, k: int, budget: WorkBudget | None = None
) -> bool:
    """True iff every k x k factor of ``m`` occurs at most once — then any
    scheme built from k x k square phrases needs one phrase per tile, see
    square_phrase_bound."""
    if not (1 <= k <= min(m.rows, m.cols)):
        raise BadParam(f"k={k} does not fit in {m.rows}x{m.cols}")
    windows = (m.rows - k + 1) * (m.cols - k + 1)
    return factor_count(m, k, k, budget) == windows


def square_phrase_bound(m: Matrix2D, k: int) -> int:
    """ceil(rows/k) * ceil(cols/k): the phrase count any k x k square-phrase
    representation needs once unique_square_certificate(m, k) holds."""
    if not (1 <= k <= min(m.rows, m.cols)):
        raise BadParam(f"k={k} does not fit in {m.rows}x{m.cols}")
    return -(-m.rows // k) * -(-m.cols // k)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def format_scheme(s: MacroScheme2D) -> str:
    lines = [f"scheme {s.rows} {s.cols}"]
    for (i, j) in sorted(s.explicit):
        lines.append(f"exp {i} {j} {s.explicit[(i, j)]}")
    for p in s.phrases:
        lines.append(f"phr {p.i1} {p.j1} {p.i2} {p.j2} {p.si} {p.sj}")
    return "\n".join(lines) + "\n"


def parse_scheme(text: str) -> MacroScheme2D:
    header: tuple[int, int] | None = None
    explicit: dict[Position, str] = {}
    phrases: list[Phrase] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "scheme" or len(parts) != 3:
                raise ParseError(
                    f"line {lineno}: expected 'scheme <rows> <cols>', got {raw!r}"
                )
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer dimensions in {raw!r}"
                ) from None
            continue
        try:
            if parts[0] == "exp" and len(parts) == 4:
                pos = (int(parts[1]), int(parts[2]))
                if pos in explicit:
                    raise ParseError(
                        f"line {lineno}: explicit cell ({pos[0]},{pos[1]}) "
                        "given twice"
                    )
                explicit[pos] = parts[3]
            elif parts[0] == "phr" and len(parts) == 7:
                phrases.append(Phrase(*(int(v) for v in parts[1:])))
            else:
                raise ParseError(f"line {lineno}: malformed line {raw!r}")
        except ValueError:
            raise ParseError(
                f"line {lineno}: non-integer coordinate in {raw!r}"
            ) from None
    if header is None:
        raise ParseError("missing scheme header line")
    return MacroScheme2D(header[0], header[1], explicit, tuple(phrases))


def read_scheme(path) -> MacroScheme2D:
    return parse_scheme(read_utf8(path))


def write_scheme(s: MacroScheme2D, path) -> None:
    write_utf8(path, format_scheme(s))
