"""Droop and lift moves and move-closure enumeration.

Both moves are one rule: a stretch of one pipe's trace is rerouted the
other way round a rectangle.  A droop takes a stretch that runs west along
the top row to an ES corner and down the west column, and sends it down
the east column and west along the bottom row.  A lift takes a westward
run along the bottom row and sends it up the east column, west along the
top row and back down the west column.  The rule adds and drops segments,
each tile being the set of segments read off ``diagram.ROUTE``; a move is
rejected when a rerouted cell is not a tile, or when the result fails
validity or reducedness.  ``_droop_candidates`` and ``_lift_candidates``
are the one definition of the moves: they yield every reroute of a grid
with its move, and the closure keeps those that trace as valid.

Closure from the Rothe diagram under both moves enumerates every unpaired
diagram of the permutation, the paper's route; dominoes are paired
afterwards.  No command path runs the closure: ``enum``, ``render`` and
the weight sum read the column-state graph (``columns``), which never uses
a move.  The two routes check each other (``qbpd verify closure``).
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .diagram import _B, _ES, ROUTE, E, N, S, W
from .diagram import Diagram, _pairings, _trace, rothe_diagram
from .perm import Permutation

__all__ = ["enumerate_unpaired", "enumerate_qbpds"]


# ---------------------------------------------------------------------------
# rerouting on tile bytes (0-based coordinates)

# each tile's segments as bit sets of the sides they join (N=1, E=2, S=4, W=8)
_SEGMENTS = [
    tuple(sorted({1 << e | 1 << (x & 3) for e, x in enumerate(route) if x >= 0}))
    for route in ROUTE
]
_TILES = {segments: tile for tile, segments in enumerate(_SEGMENTS)}
# the tile with one segment more or less, indexed by tile and segment; a
# segment more is None when the result is not a tile
_ADD = [
    [_TILES.get(tuple(sorted((*segments, s)))) for s in range(16)]
    for segments in _SEGMENTS
]
_DROP = [
    {s: _TILES[tuple(x for x in segments if x != s)] for s in segments}
    for segments in _SEGMENTS
]


def _reroute(flat, n, old, legs):
    """The grid with the trace steps ``old`` rerouted, or None if illegal.

    The new route enters old's first cell through its entry side, goes
    ``count`` cells towards each ``(side, count)`` of ``legs`` in turn and
    leaves through old's exit side.
    """
    new = bytearray(flat)
    for idx, entry, out in old:
        new[idx] = _DROP[new[idx]][1 << entry | 1 << out]
    idx, entry = old[0][0], old[0][1]
    step = (-n, 1, n, -1)
    for side, count in (*legs, (old[-1][2], 1)):
        for _ in range(count):
            tile = _ADD[new[idx]][1 << entry | 1 << side]
            if tile is None:
                return None
            new[idx] = tile
            idx += step[side]
            entry = side ^ 2
    return bytes(new)


# ---------------------------------------------------------------------------
# candidate generation from traces


def _droop_candidates(flat, n, traces):
    """Yield ``(grid, move)`` for every droop of ``flat``, valid or not.

    ``move`` is the tuple ``(r1, c1, r2, c2, pipe)``: a 1-based rectangle
    and the pipe's start row.  The grid is the reroute; the caller checks
    it by tracing.
    """
    for pipe, steps in enumerate(traces, 1):
        for t, (idx, entry, out) in enumerate(steps):
            if not (entry == E and out == S and flat[idx] == _ES):
                continue
            # the stretch starts on the westward run into the corner (at
            # most back to a WN corner) and ends on the southward run out
            # of it (at most on to a WN corner)
            r1, c1 = divmod(idx, n)
            for a in range(t - 1, -1, -1):
                first, e1, _ = steps[a]
                if e1 == S:
                    break
                c2 = first % n
                for b in range(t + 1, len(steps)):
                    last, _, o2 = steps[b]
                    if o2 == E:
                        break
                    r2 = last // n
                    if flat[r2 * n + c2] == _B:
                        legs = ((S, r2 - r1), (W, c2 - c1))
                        new = _reroute(flat, n, steps[a : b + 1], legs)
                        if new is not None:
                            yield new, (r1 + 1, c1 + 1, r2 + 1, c2 + 1, pipe)
                    if o2 == W:
                        break
                if e1 == N:
                    break


def _lift_candidates(flat, n, traces):
    """Yield ``(grid, move)`` for every lift of ``flat``, as the droops do."""
    for pipe, steps in enumerate(traces, 1):
        for a, (idx, entry, out) in enumerate(steps):
            if out != W or entry == N:
                continue
            # the stretch runs west along row r2 from a SW corner or a
            # horizontal passage to a later horizontal passage or the ES
            # corner that ends the run
            r2, c2 = divmod(idx, n)
            for b in range(a + 1, len(steps)):
                last, _, o2 = steps[b]
                if o2 == N:
                    break
                c1 = last % n
                for r1 in range(r2):
                    if flat[r1 * n + c2] == _B and flat[r1 * n + c1] == _B:
                        legs = ((N, r2 - r1), (W, c2 - c1), (S, r2 - r1))
                        new = _reroute(flat, n, steps[a : b + 1], legs)
                        if new is not None:
                            yield new, (r1 + 1, c1 + 1, r2 + 1, c2 + 1, pipe)
                if o2 == S:
                    break


# ---------------------------------------------------------------------------
# enumeration


def _closure(w: Permutation) -> list[bytes]:
    """The tile bytes of every diagram of :func:`enumerate_unpaired`."""
    n = w.n
    start = rothe_diagram(w).flat()
    target, traces0, violations = _trace(start, n)
    assert not violations, "Rothe diagram must be valid"
    frontier = deque([(start, traces0)])
    tilings = [start]
    seen = set(tilings)
    while frontier:
        flat, traces = frontier.popleft()
        for new, _ in chain(
            _droop_candidates(flat, n, traces), _lift_candidates(flat, n, traces)
        ):
            if new in seen:
                continue
            seen.add(new)
            ends, ntraces, violations = _trace(new, n)
            if violations:
                continue
            assert ends == target, "moves must preserve the permutation"
            tilings.append(new)
            frontier.append((new, ntraces))
    return tilings


def enumerate_unpaired(w: Permutation) -> set[Diagram]:
    """All unpaired diagrams of w: closure of the Rothe diagram under moves."""
    return {Diagram.from_flat(w.n, tiles) for tiles in _closure(w)}


def enumerate_qbpds(w: Permutation) -> set[Diagram]:
    """All diagrams of w: unpaired closure plus every domino pairing."""
    n = w.n
    return {
        Diagram.from_flat(n, tiles, dominoes)
        for tiles in _closure(w)
        for dominoes in _pairings(tiles, n)
    }
