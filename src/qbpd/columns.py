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
:func:`walk` is the one traversal of the graph; its callers say only what
a state carries.  :func:`flat_diagrams` carries the paths' tiles for
``enum`` and ``render``, and the weight sum in ``analysis`` carries
polynomials.  The graph never uses droop or lift moves, so the walk and the
move closure in ``moves`` are independent checks of each other.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import _B, _ES, _EW, _NE, _NS, _SW, _WN, _X, _pairings
from .perm import Permutation

__all__: list[str] = []  # the walk trades in raw states and tile bytes

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


def walk(w: Permutation, start, extend):
    """The west edge's value, carried east to west over every path of w.

    Each boundary maps every reachable state to one value, from
    ``{tuple(range(n)): start}`` at the east edge.  Column by column, a
    state's value goes to ``extend(c, value, moves, nxt)``, with ``c`` the
    0-based column, ``moves`` the state's ``((next state, tiles), ...)``
    fillings and ``nxt`` the next boundary's dict, which ``extend`` fills.
    A state with no path to the west edge ends where its fillings do, and
    the west edge has the one state ``()``.
    """
    n = w.n
    present = list(range(n))
    cur = {tuple(present): start}
    for c in range(n - 1, -1, -1):
        k = present.index(w.images.index(c + 1))
        del present[k]
        nxt: dict = {}
        # each state is freed once spent: the next boundary grows as this
        # one shrinks
        while cur:
            state, value = cur.popitem()
            extend(c, value, _column_moves(state, k, n), nxt)
        cur = nxt
    (value,) = cur.values()
    return value


def flat_diagrams(w: Permutation, unpaired: bool = False):
    """Every tiling of w with its domino sets: ``(tile bytes, [sets, ...])``.

    The states of :func:`walk` carry the column-major tiles of their
    partial paths, so the west edge holds one tiling per path.  The tilings
    come in ``canonical_key`` order, each with its sorted domino tuples in
    that order, or ``[()]`` when ``unpaired``; each set makes one diagram.
    No :class:`Diagram` is built.
    """
    n = w.n

    def extend(c, prefixes, moves, nxt):
        for new, tiles in moves:
            nxt.setdefault(new, []).extend([tiles + p for p in prefixes])

    # each walked tiling runs west to east, column-major; transpose it
    tilings = [b"".join(t[r::n] for r in range(n)) for t in walk(w, [b""], extend)]
    tilings.sort()
    return [(tiles, [()] if unpaired else _pairings(tiles, n)) for tiles in tilings]
