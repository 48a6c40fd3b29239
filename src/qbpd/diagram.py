"""Tile grids for quantum bumpless pipe dreams.

A diagram is an n x n grid of tiles plus an overlay of vertical dominoes on
empty cells.  Tile kinds are named by the pair of boundary sides their pipe
segment connects (ES is the elbow drawn as a corner opening East and South,
and so on); a cell holds at most two segments and two only as the CROSS
superposition of EW and NS.  Pipes enter from the east edge of each row,
end on the south edge, and may move west, south or up, but never east.

Traversal directions are never stored: they are recomputed by tracing,
which is also how validity is checked.  One tracer follows each pipe along
the segment holding its entry side, records a rightward step as a
violation and goes on, and audits segment use and crossings;
``validate``, ``extract_permutation``, the weight cells and the move
closure all read it.  ``ROUTE`` is the one statement of which sides each
tile joins: the tracer follows it, and the usage audit, the moves and the
drawing read the ``SEGMENTS`` derived from it.
"""

from __future__ import annotations

import enum
from itertools import chain
from operator import attrgetter

from .errors import HasDominoes, InvalidDiagram
from .perm import Permutation, _Record, make_permutation

__all__ = [
    "TileKind",
    "Diagram",
    "rothe_diagram",
    "validate",
    "extract_permutation",
    "domino_pairings",
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
# the tile kinds as plain ints, for the loops over flat grids
_B, _ES, _WN, _SW, _NE, _EW, _NS, _X = map(int, TileKind)
_TEXT = bytes.maketrans(bytes(_KINDS), TILE_TEXT.encode())

# sides, as small ints internally and chars at the API boundary
N, E, S, W = 0, 1, 2, 3
SIDE_CHARS = "NESW"

# entry side -> exit side, following the segment that holds the entry side;
# exit + 4 marks a rightward step (entering from W or leaving through E) and
# -1 a side with no segment.  Each tile's map pairs the two ends of each of
# its segments, so it is an involution and tracing is reversible: no state
# of a pipe entering from the east edge can repeat, and no two pipes share
# one.
ROUTE = (
    (-1, -1, -1, -1),  # BLANK
    (-1, S, E + 4, -1),  # ES
    (W, -1, -1, N + 4),  # WN
    (-1, -1, W, S + 4),  # SW
    (E + 4, N, -1, -1),  # NE
    (-1, W, -1, E + 4),  # EW
    (S, -1, N, -1),  # NS
    (S, W, N, E + 4),  # CROSS
)
# each tile's segments as bit sets of the sides they join (N=1, E=2, S=4,
# W=8), in falling order, so a CROSS lists its horizontal strand first
SEGMENTS = tuple(
    tuple(sorted({1 << e | 1 << (x & 3) for e, x in enumerate(r) if x >= 0})[::-1])
    for r in ROUTE
)
# the segment use of a valid grid per tile, indexed by tile: one pass along
# each segment, the first in the low nibble and a CROSS's second (its
# vertical strand) in the high one
_EXPECTED_USAGE = bytes((0, 1, 0x11)[len(s)] for s in SEGMENTS).ljust(256, b"\0")


class Diagram(_Record):
    """An n x n tile grid plus a set of dominoes.

    A domino is recorded by its upper cell (r, c), 1-based, and covers the
    vertically adjacent blank cells (r, c) and (r+1, c).
    """

    __slots__ = ("n", "tiles", "dominoes")
    _values = attrgetter(*__slots__)

    def __init__(self, n: int, tiles: tuple, dominoes: frozenset = frozenset()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tiles", tiles)
        object.__setattr__(self, "dominoes", dominoes)

    def tile_at(self, r: int, c: int) -> TileKind:
        return self.tiles[r - 1][c - 1]

    def flat(self) -> bytes:
        return bytes(chain.from_iterable(self.tiles))

    @classmethod
    def from_flat(cls, n: int, flat, dominoes=()) -> "Diagram":
        kinds = [_KINDS[t] for t in flat]
        tiles = tuple(tuple(kinds[i : i + n]) for i in range(0, n * n, n))
        return cls(n=n, tiles=tiles, dominoes=frozenset(dominoes))


# ---------------------------------------------------------------------------
# tracing


def _trace(flat, n: int):
    """Trace every pipe and audit segment use and crossings.

    Returns (end_cols, traces, violations).  A trace is the list of a
    pipe's 0-based ``(idx, entry, exit)`` steps with int sides; the end
    column is None unless the pipe ends on the south edge.  A rightward
    step is a violation and the walk goes on; a side with no segment or an
    exit off the north, west or east edge ends it.  Violations are tuples
    led by their kind, pipe violations in pipe order first; the grid is
    valid exactly when there are none.
    """
    route = ROUTE
    last = n - 1
    end_cols = []
    traces = []
    violations = []
    usage = bytearray(n * n)  # each cell side is entered at most once
    h_owner = {}  # CROSS idx -> the pipe on its horizontal strand
    v_owner = {}  # CROSS idx -> the pipe on its vertical strand
    for pipe in range(n):
        steps = []
        r, c, entry, idx = pipe, last, E, pipe * n + last
        end = None
        while True:
            tile = flat[idx]
            out = route[tile][entry]
            if out < 0:
                violations.append(("stuck", r, c, entry, pipe))
                break
            if out > W:
                out -= 4
                violations.append(("rightward", r, c, entry, pipe))
            steps.append((idx, entry, out))
            if tile != _X:
                usage[idx] += 1
            elif entry & 1:  # E or W
                usage[idx] += 1
                h_owner[idx] = pipe
            else:
                usage[idx] += 0x10
                v_owner[idx] = pipe
            if out == S:
                if r == last:
                    end = c
                    break
                r, idx, entry = r + 1, idx + n, N
            elif out == W:
                if c == 0:
                    violations.append(("boundary", r, c, W, pipe))
                    break
                c, idx, entry = c - 1, idx - 1, E
            elif out == N:
                if r == 0:
                    violations.append(("boundary", r, c, N, pipe))
                    break
                r, idx, entry = r - 1, idx - n, S
            else:  # E
                if c == last:
                    violations.append(("boundary", r, c, E, pipe))
                    break
                c, idx, entry = c + 1, idx + 1, W
        traces.append(steps)
        end_cols.append(end)
    expected = flat.translate(_EXPECTED_USAGE)
    if usage != expected:
        for idx, (u, x) in enumerate(zip(usage, expected)):
            if u != x:
                violations.append(("usage", idx // n, idx % n, (u & 15, u >> 4)))
    crossings = [(h_owner.get(idx, -1), b) for idx, b in v_owner.items()]
    pairs = [(a, b) if a < b else (b, a) for a, b in crossings]
    if len(set(pairs)) < len(pairs):
        pair_cells: dict[tuple[int, int], list] = {}
        for idx, pair in zip(v_owner, pairs):
            # a strand no pipe or one pipe alone uses has a usage or
            # rightward violation already
            if pair[0] >= 0 and pair[0] != pair[1]:
                pair_cells.setdefault(pair, []).append(divmod(idx, n))
        for pair, cells in sorted(pair_cells.items()):
            if len(cells) > 1:
                violations.append(("reduced", pair, tuple(sorted(cells))))
    return end_cols, traces, violations


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


def _problems(D: Diagram, violations) -> list[str]:
    return [_format_violation(v) for v in violations] + _domino_violations(D)


def validate(D: Diagram) -> list[str]:
    """Check the diagram; returns the (possibly empty) list of violations.

    Covers: pipes start east / end south and never move rightward, every
    non-blank segment is traversed exactly once and blanks are untouched,
    no two pipes cross twice, and the domino overlay sits on disjoint
    vertically adjacent blank pairs.
    """
    return _problems(D, _trace(D.flat(), D.n)[2])


def _valid_trace(D: Diagram):
    """``(flat, end_cols, traces)`` of a valid diagram, traced once.

    Raises :class:`InvalidDiagram` with the messages of :func:`validate`.
    """
    flat = D.flat()
    end_cols, traces, violations = _trace(flat, D.n)
    problems = _problems(D, violations)
    if problems:
        raise InvalidDiagram(problems)
    return flat, end_cols, traces


def extract_permutation(D: Diagram) -> Permutation:
    """The permutation sending each start row to its pipe's end column."""
    _, end_cols, _ = _valid_trace(D)
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
    """Maximal vertical runs of blank cells as 0-based (column, top, bottom).

    ``flat`` holds the tile bytes of ``n`` columns row by row, blanks as zero
    bytes; with ``n = 1`` it is one column.
    """
    runs = []
    for c in range(n):
        col = flat[c::n]
        top = col.find(0)
        while top >= 0:
            end = len(col) - len(col[top:].lstrip(b"\0"))  # the row below the run
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


# ---------------------------------------------------------------------------
# serialization


def canonical_key(D: Diagram) -> bytes:
    """Injective byte serialization: size, row-major tiles, sorted dominoes.

    Diagrams of one size sort by their tile bytes, then by their sorted
    domino tuples, the order of ``columns.flat_diagrams``.
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
    return flat_text(D.n, [(D.flat(), sorted(D.dominoes))])


def diagram_from_text(text: str) -> Diagram:
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty diagram text")
    n = int(lines[0])
    if n < 1:
        raise ValueError(f"diagram size {n} is not positive")
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
        try:
            r, c = map(int, ln.split(","))
        except ValueError:
            raise ValueError(f"domino line {ln!r} is not two integers") from None
        dominoes.append((r, c))
    return Diagram(n=n, tiles=tuple(rows), dominoes=frozenset(dominoes))
