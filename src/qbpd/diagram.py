"""Tile grids for quantum bumpless pipe dreams.

A diagram is an n x n grid of tiles plus an overlay of vertical dominoes on
empty cells.  Tile kinds are named by the pair of boundary sides their pipe
segment connects (ES is the elbow drawn as a corner opening East and South,
and so on); a cell holds at most two segments and two only as the CROSS
superposition of EW and NS.  Pipes enter from the east edge of each row,
end on the south edge, and may move west, south or up, but never east.

Traversal directions are never stored: they are recomputed by tracing,
which is also how validity is checked.  ``validate`` follows segments
permissively and reports *all* violations (including pipes that move
rightward through geometrically consistent tiles), while ``trace_pipes``
is strict and raises :class:`TracingStuck` on the first bad step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .errors import (
    HasDominoes,
    InvalidDiagram,
    NotRestrictable,
    TracingStuck,
)
from .perm import Permutation, make_permutation

__all__ = [
    "TileKind",
    "Diagram",
    "PipeStep",
    "PipeTrace",
    "rothe_diagram",
    "trace_pipes",
    "validate",
    "extract_permutation",
    "domino_pairings",
    "embed_diagram",
    "restrict_diagram",
    "canonical_key",
    "flat_text",
    "diagram_to_text",
    "diagram_from_text",
]


class TileKind(enum.IntEnum):
    BLANK = 0
    ES = 1  # corner joining East and South
    WN = 2  # corner joining West and North
    SW = 3  # corner joining South and West
    NE = 4  # corner joining North and East
    EW = 5  # horizontal
    NS = 6  # vertical
    CROSS = 7  # EW and NS superimposed


TILE_TEXT = ".RJSNHVC"  # BLANK ES WN SW NE EW NS CROSS
CHAR_TILES = dict(zip(TILE_TEXT, TileKind))
_KINDS = tuple(TileKind)
_TEXT = bytes.maketrans(bytes(_KINDS), TILE_TEXT.encode())

# sides, as small ints internally and chars at the API boundary
N, E, S, W = 0, 1, 2, 3
SIDE_CHARS = "NESW"

# strict routing: entry side -> exit side, -1 when the pipe cannot proceed
# without moving rightward or the side carries no segment
_NO = (-1, -1, -1, -1)
STRICT_ROUTE = {
    TileKind.BLANK: _NO,
    TileKind.ES: (-1, S, -1, -1),
    TileKind.WN: (W, -1, -1, -1),
    TileKind.SW: (-1, -1, W, -1),
    TileKind.NE: (-1, N, -1, -1),
    TileKind.EW: (-1, W, -1, -1),
    TileKind.NS: (S, -1, N, -1),
    TileKind.CROSS: (S, W, N, -1),
}
# permissive routing follows the segment containing the entry side even
# when the resulting motion is rightward (used for diagnostics)
PERMISSIVE_ROUTE = {
    TileKind.BLANK: _NO,
    TileKind.ES: (-1, S, E, -1),
    TileKind.WN: (W, -1, -1, N),
    TileKind.SW: (-1, -1, W, S),
    TileKind.NE: (E, N, -1, -1),
    TileKind.EW: (-1, W, -1, E),
    TileKind.NS: (S, -1, N, -1),
    TileKind.CROSS: (S, W, N, E),
}

_B = int(TileKind.BLANK)
_X = int(TileKind.CROSS)


class PipeStep(NamedTuple):
    cell: tuple[int, int]  # 1-based (row, column)
    entry: str
    exit: str


@dataclass(frozen=True)
class PipeTrace:
    """The path of one pipe, from its east-edge entry to its south-edge exit."""

    start_row: int
    steps: tuple[PipeStep, ...]
    end_col: int


@dataclass(frozen=True)
class Diagram:
    """An n x n tile grid plus a set of dominoes.

    A domino is recorded by its upper cell (r, c), 1-based, and covers the
    vertically adjacent blank cells (r, c) and (r+1, c).
    """

    n: int
    tiles: tuple[tuple[TileKind, ...], ...]
    dominoes: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def tile_at(self, r: int, c: int) -> TileKind:
        return self.tiles[r - 1][c - 1]

    def flat(self) -> list[int]:
        return [int(t) for row in self.tiles for t in row]

    @classmethod
    def from_flat(cls, n: int, flat, dominoes=()) -> "Diagram":
        kinds = [_KINDS[t] for t in flat]
        tiles = tuple(tuple(kinds[i : i + n]) for i in range(0, n * n, n))
        return cls(n=n, tiles=tiles, dominoes=frozenset(dominoes))


# ---------------------------------------------------------------------------
# tracing


def _trace_one(flat, n: int, row0: int, strict: bool):
    """Trace the pipe entering from the east edge of 0-based row ``row0``.

    Returns (steps, end_col, violations) with 0-based cells and int sides;
    ``end_col`` is None unless the pipe ends on the south edge.  In strict
    mode the violation list is at most one entry (the first failure).
    """
    route = STRICT_ROUTE if strict else PERMISSIVE_ROUTE
    steps = []
    violations = []
    r, c, entry = row0, n - 1, E
    seen = set()
    while True:
        state = (r, c, entry)
        if state in seen:
            violations.append(("loop", r, c, entry))
            return steps, None, violations
        seen.add(state)
        tile = flat[r * n + c]
        out = route[tile][entry]
        if out < 0:
            violations.append(("stuck", r, c, entry))
            return steps, None, violations
        steps.append((r, c, entry, out))
        if entry == W or out == E:
            violations.append(("rightward", r, c, entry))
        if out == S:
            if r == n - 1:
                return steps, c, violations
            r, entry = r + 1, N
        elif out == N:
            if r == 0:
                violations.append(("boundary", r, c, N))
                return steps, None, violations
            r, entry = r - 1, S
        elif out == W:
            if c == 0:
                violations.append(("boundary", r, c, W))
                return steps, None, violations
            c, entry = c - 1, E
        else:  # out == E
            if c == n - 1:
                violations.append(("boundary", r, c, E))
                return steps, None, violations
            c, entry = c + 1, W


def _analyze(flat, n: int):
    """Trace every pipe permissively and audit segment usage and crossings.

    Returns (end_cols, traces, violations): ``end_cols`` is a list with
    None for pipes that failed, traces hold 0-based raw steps, violations
    are structured tuples.
    """
    traces = []
    end_cols = []
    violations = []
    usage = [0] * (2 * n * n)
    cross_owner: dict[tuple[int, int], list] = {}
    for row0 in range(n):
        steps, end, viol = _trace_one(flat, n, row0, strict=False)
        traces.append(steps)
        end_cols.append(end)
        for v in viol:
            violations.append(v + (row0,))
        for r, c, entry, out in steps:
            tile = flat[r * n + c]
            strand = 1 if (tile == _X and entry != E and entry != W) else 0
            usage[(r * n + c) * 2 + strand] += 1
            if tile == _X:
                cross_owner.setdefault((r, c), [None, None])[strand] = row0
    for idx in range(n * n):
        tile = flat[idx]
        h, v = usage[2 * idx], usage[2 * idx + 1]
        if tile == _B:
            expect = (0, 0)
        elif tile == _X:
            expect = (1, 1)
        else:
            expect = (1, 0)
        if (h, v) != expect:
            violations.append(("usage", idx // n, idx % n, (h, v)))
    pair_cells: dict[tuple[int, int], list] = {}
    for (r, c), owners in cross_owner.items():
        a, b = owners
        if a is None or b is None or a == b:
            continue  # accompanied by usage or rightward violations
        pair_cells.setdefault((min(a, b), max(a, b)), []).append((r, c))
    for pair, cells in sorted(pair_cells.items()):
        if len(cells) > 1:
            violations.append(("reduced", pair, tuple(sorted(cells))))
    return end_cols, traces, violations


def _fast_valid(flat, n: int):
    """Cheap validity test for unpaired grids used by move enumeration.

    Returns (end_cols, traces) on success, None on any violation.
    """
    traces = []
    end_cols = []
    usage = [0] * (2 * n * n)
    cross_owner: dict[int, list] = {}
    route = STRICT_ROUTE
    for row0 in range(n):
        steps = []
        r, c, entry = row0, n - 1, E
        while True:
            idx = r * n + c
            tile = flat[idx]
            out = route[tile][entry]
            if out < 0:
                return None
            vertical = tile == _X and entry != E
            steps.append((idx, entry, out))
            slot = 2 * idx + 1 if vertical else 2 * idx
            if usage[slot]:
                return None
            usage[slot] = 1
            if tile == _X:
                own = cross_owner.setdefault(idx, [None, None])
                own[1 if vertical else 0] = row0
            if out == S:
                if r == n - 1:
                    break
                r, entry = r + 1, N
            elif out == N:
                if r == 0:
                    return None
                r, entry = r - 1, S
            else:  # W
                if c == 0:
                    return None
                c, entry = c - 1, E
        traces.append(steps)
        end_cols.append(c)
    for idx in range(n * n):
        tile = flat[idx]
        if tile == _B:
            continue
        if not usage[2 * idx]:
            return None
        if (tile == _X) != bool(usage[2 * idx + 1]):
            return None
    pairs = set()
    for owners in cross_owner.values():
        a, b = owners
        key = (a, b) if a < b else (b, a)
        if key in pairs:
            return None
        pairs.add(key)
    return end_cols, traces


def _format_violation(v) -> str:
    kind = v[0]
    if kind == "rightward":
        _, r, c, entry, pipe = v
        return f"pipe {pipe + 1} moves rightward at ({r + 1},{c + 1})"
    if kind == "stuck":
        _, r, c, entry, pipe = v
        return (
            f"pipe {pipe + 1} stuck at ({r + 1},{c + 1}):"
            f" no segment on side {SIDE_CHARS[entry]}"
        )
    if kind == "boundary":
        _, r, c, side, pipe = v
        return (
            f"pipe {pipe + 1} leaves the grid at ({r + 1},{c + 1})"
            f" through side {SIDE_CHARS[side]}"
        )
    if kind == "loop":
        _, r, c, entry, pipe = v
        return f"pipe {pipe + 1} loops at ({r + 1},{c + 1})"
    if kind == "usage":
        _, r, c, hv = v
        return f"segment usage {hv} at ({r + 1},{c + 1}) is not the tile's"
    if kind == "reduced":
        _, pair, cells = v
        where = ", ".join(f"({r + 1},{c + 1})" for r, c in cells)
        return (
            f"pipes {pair[0] + 1} and {pair[1] + 1} cross more than once"
            f" at {where}"
        )
    return str(v)


def _domino_violations(D: Diagram) -> list[str]:
    out = []
    covered = set()
    for r, c in sorted(D.dominoes):
        if not (1 <= r < D.n and 1 <= c <= D.n):
            out.append(f"domino at ({r},{c}) out of bounds")
            continue
        if D.tile_at(r, c) != TileKind.BLANK or D.tile_at(r + 1, c) != TileKind.BLANK:
            out.append(f"domino at ({r},{c}) does not cover two blank cells")
        for cell in ((r, c), (r + 1, c)):
            if cell in covered:
                out.append(f"domino cell ({cell[0]},{cell[1]}) covered twice")
            covered.add(cell)
    return out


def trace_pipes(D: Diagram) -> tuple[PipeTrace, ...]:
    """Trace all n pipes; raises :class:`TracingStuck` on the first failure."""
    n = D.n
    flat = D.flat()
    out = []
    for row0 in range(n):
        steps, end, viol = _trace_one(flat, n, row0, strict=True)
        if viol:
            kind, r, c, side = viol[0][:4]
            raise TracingStuck((r + 1, c + 1), SIDE_CHARS[side], kind)
        out.append(
            PipeTrace(
                start_row=row0 + 1,
                steps=tuple(
                    PipeStep((r + 1, c + 1), SIDE_CHARS[en], SIDE_CHARS[ex])
                    for r, c, en, ex in steps
                ),
                end_col=end + 1,
            )
        )
    return tuple(out)


def validate(D: Diagram) -> list[str]:
    """Check the diagram; returns the (possibly empty) list of violations.

    Covers: pipes start east / end south and never move rightward, every
    non-blank segment is traversed exactly once and blanks are untouched,
    no two pipes cross twice, and the domino overlay sits on disjoint
    vertically adjacent blank pairs.
    """
    _, _, violations = _analyze(D.flat(), D.n)
    out = [_format_violation(v) for v in violations]
    out.extend(_domino_violations(D))
    return out


def extract_permutation(D: Diagram) -> Permutation:
    """The permutation sending each start row to its pipe's end column."""
    problems = validate(D)
    if problems:
        raise InvalidDiagram(problems)
    end_cols, _ = _fast_valid(D.flat(), D.n)
    return make_permutation([c + 1 for c in end_cols])


# ---------------------------------------------------------------------------
# constructions


def rothe_diagram(w: Permutation) -> Diagram:
    """The smoothed Rothe diagram of w as a (classical) pipe dream.

    Cell (i, j) holds the ES corner when j = w(i); east of the corner the
    row runs horizontally, under it the column runs vertically, and their
    meetings are crossings; the untouched cells (j < w(i) and the value j
    not yet placed above) stay blank.
    """
    n = w.n
    rows = []
    for i in range(1, n + 1):
        wi = w(i)
        row = []
        for j in range(1, n + 1):
            above = w.position_of(j) < i
            if j == wi:
                row.append(TileKind.ES)
            elif j > wi:
                row.append(TileKind.CROSS if above else TileKind.EW)
            else:
                row.append(TileKind.NS if above else TileKind.BLANK)
        rows.append(tuple(row))
    return Diagram(n=n, tiles=tuple(rows))


def _blank_runs(flat, n: int) -> list[tuple[int, int, int]]:
    """Maximal vertical runs of blank cells as 0-based (column, top, bottom)."""
    flat = bytes(flat)  # blank tiles are zero bytes
    runs = []
    for c in range(n):
        col = flat[c::n]
        top = col.find(0)
        while top >= 0:
            end = n - len(col[top:].lstrip(b"\0"))  # the row below the run
            runs.append((c, top, end - 1))
            top = col.find(0, end)
    return runs


def _pairings(flat, n: int) -> list[tuple]:
    """Every domino set of an unpaired grid, in :func:`canonical_key` order.

    A set is the sorted tuple of its 1-based upper cells.  Any blank with a
    blank below it may be an upper cell, but not together with that lower
    cell; so a run of L blanks has F_L sets, and a grid the product of its
    runs' sets.
    """
    runs = _blank_runs(flat, n)
    uppers = [(r + 1, c + 1) for c, top, bottom in runs for r in range(top, bottom)]
    sets = [()]
    for r, c in sorted(uppers, reverse=True):
        sets += [((r, c),) + rest for rest in sets if (r + 1, c) not in rest]
    return sorted(sets)


def domino_pairings(D: Diagram) -> set[Diagram]:
    """All diagrams obtained by pairing vertically adjacent blank cells.

    One output per matching of the blank-adjacency graph, including the
    empty matching (the input itself).
    """
    if D.dominoes:
        raise HasDominoes("domino pairings start from an unpaired diagram")
    return {
        Diagram(n=D.n, tiles=D.tiles, dominoes=frozenset(dominoes))
        for dominoes in _pairings(D.flat(), D.n)
    }


def embed_diagram(D: Diagram) -> Diagram:
    """Extend to (n+1) x (n+1): the new pipe hugs the southeast border."""
    n = D.n
    rows = [row + (TileKind.EW,) for row in D.tiles]
    rows.append(tuple(TileKind.NS for _ in range(n)) + (TileKind.ES,))
    return Diagram(n=n + 1, tiles=tuple(rows), dominoes=D.dominoes)


def restrict_diagram(D: Diagram) -> Diagram:
    """Drop the last row and column when the diagram's permutation fixes n.

    Inverse of :func:`embed_diagram`; the border is guaranteed to consist
    of horizontal tiles, vertical tiles and one ES corner whenever w(n)=n.
    """
    n = D.n
    if n == 1:
        raise NotRestrictable("cannot restrict a 1x1 diagram")
    w = extract_permutation(D)
    if w(n) != n:
        raise NotRestrictable(f"permutation {w} does not fix {n}")
    border_ok = (
        D.tile_at(n, n) == TileKind.ES
        and all(D.tile_at(r, n) == TileKind.EW for r in range(1, n))
        and all(D.tile_at(n, c) == TileKind.NS for c in range(1, n))
    )
    if not border_ok:
        raise NotRestrictable("border is not in the stable form")
    rows = tuple(row[: n - 1] for row in D.tiles[: n - 1])
    return Diagram(n=n - 1, tiles=rows, dominoes=D.dominoes)


# ---------------------------------------------------------------------------
# serialization


def canonical_key(D: Diagram) -> bytes:
    """Injective byte serialization: size, row-major tiles, sorted dominoes.

    Diagrams of one size sort by their tile bytes, then by their sorted
    domino tuples, the order of ``moves.flat_diagrams``.
    """
    return bytes([D.n, *D.flat(), 255, *chain.from_iterable(sorted(D.dominoes))])


def flat_text(n: int, diagrams) -> str:
    """The text of ``(tile bytes, sorted dominoes)`` pairs, blank-line separated.

    Each tiling's grid lines are formatted once, however many domino sets
    follow it.
    """
    blocks = []
    last = grid = None
    for tiles, dominoes in diagrams:
        if tiles != last:
            chars = tiles.translate(_TEXT).decode()
            rows = [chars[i : i + n] for i in range(0, n * n, n)]
            last, grid = tiles, "\n".join([str(n), *rows]) + "\n"
        blocks.append(grid + "".join(f"{r},{c}\n" for r, c in dominoes))
    return "\n".join(blocks)


def diagram_to_text(D: Diagram) -> str:
    return flat_text(D.n, [(bytes(D.flat()), sorted(D.dominoes))])


def diagram_from_text(text: str) -> Diagram:
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty diagram text")
    n = int(lines[0])
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} grid lines")
    rows = []
    for ln in lines[1 : 1 + n]:
        if len(ln) != n:
            raise ValueError(f"grid line {ln!r} is not {n} characters")
        try:
            rows.append(tuple(CHAR_TILES[ch] for ch in ln))
        except KeyError as exc:
            raise ValueError(f"unknown tile character in {ln!r}") from exc
    dominoes = []
    for ln in lines[1 + n :]:
        r, c = ln.split(",")
        dominoes.append((int(r), int(c)))
    return Diagram(n=n, tiles=tuple(rows), dominoes=frozenset(dominoes))
