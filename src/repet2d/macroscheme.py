"""Macro schemes: represent a matrix by explicit cells plus copied phrases.

A phrase copies a target rectangle from a source rectangle of the same shape
anywhere in the matrix (sources may overlap targets and other phrases). The
scheme is valid when targets plus explicit cells partition the grid, sources
stay in bounds, and following cell -> source-cell pointers always reaches an
explicit cell (no cycles). Size = #explicit + #phrases.

analyze_boxes checks and resolves schemes over any number of axes. It writes
each box's copy offset into an int32 array with one slice, checks the
partition once (the part volumes add up to the grid and no cell is left
free), then resolves every chain at once by pointer jumping, as in list
ranking: each round replaces every cell's pointer by its pointer's pointer,
so a scheme of N cells whose longest chain has L hops is resolved in
O(N log L) array work. Only when a check fails does it replay the boxes in
order, to name the same overlap, hole or cycle cell (the first repeated cell
on the chain of the smallest cell that never reaches an explicit one) as a
box-by-box, cell-by-cell check would.

b_exact finds a smallest valid scheme by branch-and-bound over rectangle
partitions in row-major order; it is exponential and guarded by cell_limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add, le, mul, sub
from typing import Callable, Mapping, Sequence

import numpy as np

from .budget import WorkBudget, ensure_budget
from .core2d import MAX_CELLS, Matrix2D, Position, WindowIds, encode_tokens, factor_count
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


def walk_chains(source: list[int]) -> tuple[list[int] | None, int | None]:
    """Follow every cell's copy chain; a negative ``source[c]`` ends the
    chain at c. Returns ``(root, None)`` where ``root[c]`` is the cell c's
    chain ends at, or ``(None, cell)`` when some chain never ends: ``cell``
    is the first cell repeated on the chain of the smallest such cell.

    Its caller is ``b_exact``, which checks a copy map of at most
    ``cell_limit`` cells after every source choice; on lists that short
    this scalar walk is faster than the array code of ``analyze_boxes``.
    The tests' list-filling oracle of ``analyze_boxes`` uses it too.
    """
    root = [-1] * len(source)  # -1 unseen, -2 on the current chain
    for start in range(len(source)):
        if root[start] >= 0:
            continue
        path = []
        cur = start
        while root[cur] == -1:
            nxt = source[cur]
            if nxt < 0:
                root[cur] = cur
                break
            root[cur] = -2
            path.append(cur)
            cur = nxt
        end = root[cur]
        if end == -2:
            return None, cur
        for c in path:
            root[c] = end
    return root, None


def analyze_boxes(
    dims: tuple[int, ...],
    explicit: Mapping[tuple[int, ...], object],
    boxes: Sequence[tuple[tuple[int, ...], ...]],
    size: int,
    describe: Callable[[str, object], tuple[str, str]],
) -> tuple[SchemeCheck, tuple[np.ndarray, dict[int, str]] | None]:
    """Checks shared by the 2D and dD schemes over any number of axes.

    ``boxes`` holds (lo, hi, src) corner triples, 1-based and inclusive. The
    cell cap is checked before anything is allocated. On success returns
    the check and ``(root, tokens)``: ``root`` is an int32 array that maps
    each flat cell index to the explicit cell its copy chain ends at,
    ``tokens`` maps explicit flat indices to their tokens. Otherwise the
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
    loops = False  # has a box copied itself?

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

    def bounds_fault(k: int, lo, hi, src):
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
    ones = (1,) * d
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
            return bounds_fault(k, lo, hi, src)
        cut = tuple(map(slice, map(sub, lo, ones), hi))
        view = grid[cut]
        shift = sum(map(mul, map(sub, src, lo), strides))
        view[...] = shift
        loops = loops or not shift
        covered += view.size
        cuts.append(cut)
    # the parts partition the grid iff their volumes add up and none is free
    if covered != total or step.min() == _FREE:
        cell = first_overlap()
        if cell is not None:
            return fail("overlap", cell)
        free = np.flatnonzero(step == _FREE)
        return fail("holes", (len(free), int(free[0])))
    # Pointer jumping: after t rounds root[c] is 2^t hops down c's chain, or
    # its end, so chains (shorter than total) end after total.bit_length()
    # rounds and the next one changes nothing. A cycle whose length is not a
    # power of two keeps moving; any other cycle settles on a copied cell.
    root = np.arange(total, dtype=np.int32)
    root += step
    spare = np.empty_like(root)
    for _ in range(total.bit_length() + 1):
        root.take(root, out=spare, mode="clip")  # "clip" writes unbuffered
        if (spare == root).all():
            break
        root, spare = spare, root
    # without self-copies only explicit cells take no step, so every chain
    # ends at one iff no root takes a step
    if loops or step.take(root, out=spare, mode="clip").any():
        ends = np.zeros(total, dtype=bool)
        ends[cells] = True
        cur, seen = int(np.argmin(ends[root])), set()  # the first cell that misses
        while cur not in seen:
            seen.add(cur)
            cur += int(step[cur])
        return fail("cycle", cur)
    return SchemeCheck(True, size), (root, tokens)


def decoded_cells(
    root: np.ndarray, tokens: Mapping[int, str]
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Cell ids and alphabet of a decoded scheme (see analyze_boxes)."""
    ids, alphabet = encode_tokens(tokens.values())
    lookup = np.zeros(len(root), dtype=np.int32)
    lookup[list(tokens)] = ids
    return tuple(lookup.take(root).tolist()), alphabet


def _analyze(s: MacroScheme2D):
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
    return analyze_boxes((s.rows, s.cols), s.explicit, phrases, s.size, describe)


def validate_scheme(s: MacroScheme2D) -> SchemeCheck:
    return _analyze(s)[0]


def decode(s: MacroScheme2D, budget: WorkBudget | None = None) -> Matrix2D:
    """The matrix the scheme represents; raises on invalid schemes."""
    check, data = _analyze(s)
    if not check.ok:
        raise _ERRORS[check.error](check.message)
    budget = ensure_budget(budget)
    budget.charge(s.rows * s.cols, "scheme decode")
    return Matrix2D(s.rows, s.cols, *decoded_cells(*data))


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


def b_exact(
    m: Matrix2D,
    cell_limit: int = 9,
    work_limit: int = 5_000_000,
    budget: WorkBudget | None = None,
) -> MacroScheme2D:
    """A smallest valid macro scheme for ``m``.

    Branch and bound over rectangle partitions: the first uncovered cell in
    row-major order is always the top-left of its part; 1x1 parts are made
    explicit (never worse than a 1x1 copy), larger parts require the same
    content somewhere else in the matrix and get their sources assigned by a
    nested search with incremental cycle checks.
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

    def rect_mask(i: int, j: int, h: int, w: int) -> int:
        seg = ((1 << w) - 1) << j
        out = 0
        for a in range(i, i + h):
            out |= seg << (a * cols)
        return out

    # parts: ("e", i, j) or ("p", i, j, h, w); all coordinates 0-based here
    all_explicit = [("e", i, j) for i in range(rows) for j in range(cols)]
    best: dict = {"size": total, "parts": all_explicit, "assignment": []}
    work = [0]

    def tick() -> None:
        work[0] += 1
        budget.charge(1, "scheme search")
        if work[0] > work_limit:
            raise ShapeTooLarge(
                f"scheme search exceeded work_limit={work_limit}"
            )

    def assign_sources(parts: list) -> list | None:
        copied = [p for p in parts if p[0] == "p"]
        if not copied:
            return []
        if not any(p[0] == "e" for p in parts):
            return None  # every chain would be infinite
        source_of = [-2] * total  # -2 unknown, -1 explicit
        for kind, i, j, *rest in parts:
            if kind == "e":
                source_of[i * cols + j] = -1

        chosen: list[Position] = []

        def fill(p, src: Position | None) -> None:
            _, i, j, h, w = p
            for a in range(h):
                for b in range(w):
                    idx = (i + a) * cols + (j + b)
                    source_of[idx] = (
                        -2 if src is None else (src[0] + a) * cols + (src[1] + b)
                    )

        def rec(pos: int) -> bool:
            if pos == len(copied):
                return True
            tick()
            p = copied[pos]
            for src in occurrences(p[1], p[2], p[3], p[4]):
                fill(p, src)
                if walk_chains(source_of)[0] is not None:
                    chosen.append(src)
                    if rec(pos + 1):
                        return True
                    chosen.pop()
            fill(p, None)
            return False

        if not rec(0):
            return None
        return list(zip(copied, chosen))

    def dfs(covered: int, parts: list) -> None:
        tick()
        if covered == full_mask:
            assignment = assign_sources(parts)
            if assignment is not None:
                best["size"] = len(parts)
                best["parts"] = list(parts)
                best["assignment"] = assignment
            return
        free = total - bin(covered).count("1")
        if len(parts) + -(-free // max_copy_area) >= best["size"]:
            return
        idx = ((~covered) & (covered + 1)).bit_length() - 1  # lowest free cell
        i, j = divmod(idx, cols)
        options = []
        for h in range(1, rows - i + 1):
            for w in range(1, cols - j + 1):
                mask = rect_mask(i, j, h, w)
                if mask & covered:
                    continue
                if h * w > 1 and not occurrences(i, j, h, w):
                    continue
                options.append((h * w, h, w, mask))
        options.sort(key=lambda o: (-o[0], o[1], o[2]))
        for area, h, w, mask in options:
            if area == 1:
                parts.append(("e", i, j))
            else:
                parts.append(("p", i, j, h, w))
            dfs(covered | mask, parts)
            parts.pop()

    dfs(0, [])
    parts = best["parts"]
    sources = {tuple(p): src for p, src in best["assignment"]}
    explicit: dict[Position, str] = {}
    phrases: list[Phrase] = []
    for p in parts:
        if p[0] == "e":
            _, i, j = p
            explicit[(i + 1, j + 1)] = m.at(i + 1, j + 1)
        else:
            _, i, j, h, w = p
            si, sj = sources[tuple(p)]
            phrases.append(
                Phrase(i + 1, j + 1, i + h, j + w, si + 1, sj + 1)
            )
    return MacroScheme2D(rows, cols, explicit, tuple(phrases))


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scheme(fh.read())


def write_scheme(s: MacroScheme2D, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_scheme(s))
