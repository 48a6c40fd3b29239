"""Droop and lift moves and move-closure enumeration.

A droop reroutes a pipe's ES corner to the opposite corner of a rectangle:
the pipe turns south at the rectangle's northeast cell, runs down its east
column, takes a WN corner at the southeast cell and runs west along the
bottom row to rejoin its old exit.  A lift raises a westward run of a pipe
along the bottom row, from a horizontal passage or SW corner at the east
end to a horizontal passage or ES corner at the west end (two adjacent
corners included), into an up-left-down detour: up the rectangle's east
column, SW corner, west along the top row, ES corner, and back down the
west column.

Both moves are segment-level rewrites followed by full revalidation; a
move is rejected when a rewritten cell would not be a legal tile (a second
segment only ever forms the CROSS) or when the result fails validity or
reducedness.  ``_droop_candidates`` and ``_lift_candidates`` are the one
definition of the moves: they yield every rewrite of a grid together with
its move, and the closure keeps the rewrites that trace as valid.

Closure from the Rothe diagram under both moves enumerates every unpaired
diagram of the permutation, the paper's route; dominoes are paired
afterwards.  No command path runs the closure: ``enum``, ``render`` and
the weight sum read the column-state graph (``columns``), which never uses
a move.  The two routes check each other (``qbpd verify closure``).
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .diagram import _B, _ES, _EW, _NE, _NS, _SW, _WN, _X, E, N, S, W
from .diagram import Diagram, _pairings, _trace, rothe_diagram
from .perm import Permutation

__all__ = ["enumerate_unpaired", "enumerate_qbpds"]


# ---------------------------------------------------------------------------
# rewrites on flat grids (0-based coordinates)


def _droop_rewrite(flat, n, r1, c1, r2, c2, ekind, xkind):
    """Rewrite a droop; returns the new flat grid or None if illegal.

    ``ekind`` is the pipe's tile at the entry cell (r1, c2): EW or WN;
    ``xkind`` the tile at the exit cell (r2, c1): NS or WN.
    """
    if flat[r2 * n + c2] != _B:
        return None
    if ekind == _EW and flat[r1 * n + c2] != _EW:
        return None  # horizontal strand of a CROSS cannot become a corner
    if xkind == _NS and flat[r2 * n + c1] != _NS:
        return None
    for r in range(r1 + 1, r2):
        if flat[r * n + c2] not in (_B, _EW):
            return None
    for c in range(c1 + 1, c2):
        if flat[r2 * n + c] not in (_B, _NS):
            return None
    new = list(flat)
    new[r1 * n + c2] = _ES if ekind == _EW else _NS
    for r in range(r1 + 1, r2):
        i = r * n + c2
        new[i] = _NS if new[i] == _B else _X
    new[r2 * n + c2] = _WN
    for c in range(c1 + 1, c2):
        i = r1 * n + c
        new[i] = _B if new[i] == _EW else _NS
        i = r2 * n + c
        new[i] = _EW if new[i] == _B else _X
    new[r1 * n + c1] = _B
    for r in range(r1 + 1, r2):
        i = r * n + c1
        new[i] = _B if new[i] == _NS else _EW
    new[r2 * n + c1] = _ES if xkind == _NS else _EW
    return new


def _lift_rewrite(flat, n, r1, c1, r2, c2, ekind, xkind):
    """Rewrite a lift; returns the new flat grid or None if illegal.

    ``ekind`` is the pipe's tile at the east end (r2, c2): EW or SW;
    ``xkind`` the tile at the west end (r2, c1): EW or ES.
    """
    if flat[r1 * n + c2] != _B or flat[r1 * n + c1] != _B:
        return None
    if ekind == _EW and flat[r2 * n + c2] != _EW:
        return None
    if xkind == _EW and flat[r2 * n + c1] != _EW:
        return None
    for r in range(r1 + 1, r2):
        if flat[r * n + c2] not in (_B, _EW) or flat[r * n + c1] not in (_B, _EW):
            return None
    for c in range(c1 + 1, c2):
        if flat[r1 * n + c] not in (_B, _NS):
            return None
    new = list(flat)
    new[r2 * n + c2] = _NE if ekind == _EW else _NS
    new[r1 * n + c2] = _SW
    new[r1 * n + c1] = _ES
    for r in range(r1 + 1, r2):
        for col in (c1, c2):
            i = r * n + col
            new[i] = _NS if new[i] == _B else _X
    for c in range(c1 + 1, c2):
        i = r1 * n + c
        new[i] = _EW if new[i] == _B else _X
        i = r2 * n + c
        new[i] = _B if new[i] == _EW else _NS
    new[r2 * n + c1] = _WN if xkind == _EW else _NS
    return new


# ---------------------------------------------------------------------------
# candidate generation from traces


def _droop_candidates(flat, n, traces):
    """Yield ``(grid, move)`` for every droop of ``flat``, valid or not.

    ``move`` is the tuple ``(r1, c1, r2, c2, pipe)``: a 1-based rectangle
    and the pipe's start row.  The grid is the rewrite; the caller checks
    it by tracing.
    """
    for pipe, steps in enumerate(traces, 1):
        for t, (idx, entry, out) in enumerate(steps):
            if not (entry == E and out == S and flat[idx] == _ES):
                continue
            r1, c1 = divmod(idx, n)
            east = []
            tt = t - 1
            while tt >= 0:
                idx2, e2, o2 = steps[tt]
                if e2 == E and o2 == W:
                    east.append((idx2 % n, _EW))
                    tt -= 1
                    continue
                if e2 == N and o2 == W:
                    east.append((idx2 % n, _WN))
                break
            if not east:
                continue
            south = []
            tt = t + 1
            while tt < len(steps):
                idx2, e2, o2 = steps[tt]
                if e2 == N and o2 == S:
                    south.append((idx2 // n, _NS))
                    tt += 1
                    continue
                if e2 == N and o2 == W:
                    south.append((idx2 // n, _WN))
                break
            for c2, ekind in east:
                for r2, xkind in south:
                    new = _droop_rewrite(flat, n, r1, c1, r2, c2, ekind, xkind)
                    if new is not None:
                        yield new, (r1 + 1, c1 + 1, r2 + 1, c2 + 1, pipe)


def _lift_candidates(flat, n, traces):
    """Yield ``(grid, move)`` for every lift of ``flat``, as the droops do."""
    for pipe, steps in enumerate(traces, 1):
        t = 0
        m = len(steps)
        while t < m:
            idx, entry, out = steps[t]
            t += 1
            if out != W or entry == N:
                continue
            # a westward run on row r2, east to west: a SW corner or a
            # horizontal passage, then horizontal passages.  A SW corner
            # directly followed by an ES corner is a run too (c1 = c2 - 1).
            r2 = idx // n
            east = [(idx % n, _SW if entry == S else _EW)]
            while t < m and steps[t][1] == E and steps[t][2] == W:
                east.append((steps[t][0] % n, _EW))
                t += 1
            west = [cell for cell in east if cell[1] == _EW]
            if t < m and steps[t][1] == E and steps[t][2] == S:
                west.append((steps[t][0] % n, _ES))
            for c2, ekind in east:
                for c1, xkind in west:
                    if c1 >= c2:
                        continue
                    for r1 in range(r2):
                        new = _lift_rewrite(
                            flat, n, r1, c1, r2, c2, ekind, xkind
                        )
                        if new is not None:
                            yield new, (r1 + 1, c1 + 1, r2 + 1, c2 + 1, pipe)


# ---------------------------------------------------------------------------
# enumeration


def _closure(w: Permutation) -> list[bytes]:
    """The tile bytes of every diagram of :func:`enumerate_unpaired`."""
    n = w.n
    start = rothe_diagram(w).flat()
    target, traces0, violations = _trace(start, n)
    assert not violations, "Rothe diagram must be valid"
    frontier = deque([(start, traces0)])
    tilings = [bytes(start)]
    seen = set(tilings)
    while frontier:
        flat, traces = frontier.popleft()
        for new, _ in chain(
            _droop_candidates(flat, n, traces), _lift_candidates(flat, n, traces)
        ):
            key = bytes(new)
            if key in seen:
                continue
            seen.add(key)
            ends, ntraces, violations = _trace(new, n)
            if violations:
                continue
            assert ends == target, "moves must preserve the permutation"
            tilings.append(key)
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
