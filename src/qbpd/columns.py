"""The column-state graph of a permutation, and the diagrams on its paths.

Pipes move only west, south or up, so a pipe crosses each boundary between
two columns at most once, and pipe i crosses exactly the boundaries east of
its exit column w(i).  A *state* is the tuple of rows of the pipes present
at one boundary, in pipe order; at the east edge pipe i is on row i.

Inside a column every present pipe makes one vertical run from its entry
row (on the east side) to its exit row (on the west side); the pipe that
ends in this column runs to the bottom edge.  A run of length zero is a
straight passer.  A filling of the column is legal when

* the runs occupy disjoint cells, corners included;
* a passer sits only on an interior cell of a run, where it forms a CROSS;
* pipes i < j cross only while i is still above j.

The relative order of two pipes changes only where they cross, so the last
rule is exactly "no two pipes cross twice": reducedness is local.  The
fillings along a path from the east edge to the west edge are the columns
of one unpaired diagram of w, and every unpaired diagram is one such path.
:func:`flat_diagrams` walks the paths for ``enum`` and ``render``, and the
weight sum in ``analysis`` runs a dynamic program over the same graph.  The
graph never uses droop or lift moves, so the walk and the move closure in
``moves`` are independent checks of each other.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import _B, _ES, _EW, _NE, _NS, _SW, _WN, _X, _pairings
from .perm import Permutation

__all__: list[str] = []  # both functions trade in raw tile bytes

_FREE, _DOWN, _UP = 0, 1, 2


@lru_cache(maxsize=None)
def _column_moves(rows: tuple[int, ...], k: int, n: int):
    """Every legal filling of one column: ``((next state, tiles), ...)``.

    ``rows`` is the state on the column's east side and ``k`` the position
    in it of the pipe that ends in this column.  ``tiles`` holds the
    column's n tiles, top to bottom, as bytes.  The scan runs down the
    rows and branches wherever a row admits two tiles: a blank or the SW
    corner that opens an upward run, a passer or the ES corner that starts
    a downward run, a NS tile or the WN corner that ends one, a CROSS or
    the NE corner that closes an upward run.  The fillings depend on
    ``(rows, k, n)`` alone, so they are cached for the life of the process.
    """
    at = [-1] * n  # row -> position of the pipe entering there
    for pos, r in enumerate(rows):
        at[r] = pos
    last_closer = max((r for pos, r in enumerate(rows) if pos != k), default=-1)
    out = list(rows)  # exit row per position; a passer keeps its row
    tiles = bytearray(n)
    moves = []

    def scan(r: int, mode: int, j: int, top: int):
        # _DOWN: j is the running pipe; _UP: the run opened on row ``top``
        # and j is the largest passer position inside it so far
        while r < n:
            pos = at[r]
            if mode == _FREE:
                if pos < 0:
                    if r < last_closer:
                        tiles[r] = _SW
                        scan(r + 1, _UP, -1, r)
                    tiles[r] = _B
                elif pos == k:
                    tiles[r] = _ES
                    mode, j = _DOWN, k
                else:
                    tiles[r] = _ES
                    scan(r + 1, _DOWN, pos, 0)
                    tiles[r] = _EW
            elif mode == _DOWN:
                if pos < 0:
                    if j != k:
                        tiles[r] = _WN
                        out[j] = r
                        scan(r + 1, _FREE, 0, 0)
                        out[j] = rows[j]
                    tiles[r] = _NS
                elif j < pos != k:  # pipe j is above: it must come first
                    tiles[r] = _X
                else:
                    return
            else:  # _UP
                if pos < 0:
                    tiles[r] = _NS
                elif pos == k:
                    return
                else:
                    if j < pos:  # every passer so far is above pipe pos
                        tiles[r] = _NE
                        out[pos] = top
                        scan(r + 1, _FREE, 0, 0)
                        out[pos] = r
                    tiles[r] = _X
                    j = max(j, pos)
            r += 1
        if mode == _FREE or (mode == _DOWN and j == k):
            moves.append((tuple(out[:k] + out[k + 1 :]), bytes(tiles)))

    scan(0, _FREE, 0, 0)
    return tuple(moves)


def column_graph(w: Permutation) -> list[dict]:
    """The reachable states of w and their fillings, column by column.

    Returns one dict per column, from column n (east) to column 1 (west),
    mapping each state reachable on the column's east side to its tuple of
    ``(next state, tiles)`` fillings.  The west edge has the one state
    ``()``; a state with no path to it has no filling or leads only to
    such states.
    """
    n = w.n
    present = list(range(n))
    states = {tuple(present)}
    layers = []
    for c in range(n - 1, -1, -1):
        k = present.index(w.images.index(c + 1))
        layer = {s: _column_moves(s, k, n) for s in states}
        layers.append(layer)
        del present[k]
        states = {new for moves in layer.values() for new, _ in moves}
    return layers


def flat_diagrams(w: Permutation, unpaired: bool = False):
    """Every tiling of w with its domino sets: ``(tile bytes, [sets, ...])``.

    One tiling per path of :func:`column_graph`, in ``canonical_key``
    order, with its sorted domino tuples in that order, or ``[()]`` when
    ``unpaired``; each set makes one diagram.  No :class:`Diagram` is built.
    """
    n = w.n
    layers = column_graph(w)
    tilings = []

    def walk(depth: int, state, cols):
        if depth == n:
            # ``cols`` runs east to west; join it west to east, column-major
            by_col = b"".join(reversed(cols))
            tilings.append(b"".join(by_col[r::n] for r in range(n)))
            return
        for new, tiles in layers[depth][state]:
            cols.append(tiles)
            walk(depth + 1, new, cols)
            cols.pop()

    walk(0, tuple(range(n)), [])
    tilings.sort()
    return [(tiles, [()] if unpaired else _pairings(tiles, n)) for tiles in tilings]
