"""Droop and lift moves and move-closure enumeration.

A droop reroutes a pipe's ES corner to the opposite corner of a rectangle:
the pipe turns south at the rectangle's northeast cell, runs down its east
column, takes a WN corner at the southeast cell and runs west along the
bottom row to rejoin its old exit.  A lift raises a horizontal run of a
pipe into an up-left-down detour: up the rectangle's east column, SW
corner, west along the top row, ES corner, and back down the west column.

Both moves are segment-level rewrites followed by full revalidation; a
move is rejected when a rewritten cell would not be a legal tile (a second
segment only ever forms the CROSS) or when the result fails validity or
reducedness.  Closure from the Rothe diagram under both moves enumerates
every unpaired diagram of the permutation, the paper's route; dominoes are
paired afterwards.  No command path runs the closure: ``enum``, ``render``
and the weight sum read the column-state graph (``columns``), which never
uses a move.  The two routes check each other (``qbpd verify closure``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

from .diagram import Diagram, TileKind, _pairings, _trace, rothe_diagram
from .errors import MoveRejected
from .perm import Permutation

__all__ = [
    "RectMove",
    "apply_droop",
    "apply_lift",
    "enumerate_unpaired",
    "enumerate_qbpds",
]

_B = int(TileKind.BLANK)
_ES = int(TileKind.ES)
_WN = int(TileKind.WN)
_SW = int(TileKind.SW)
_NE = int(TileKind.NE)
_EW = int(TileKind.EW)
_NS = int(TileKind.NS)
_X = int(TileKind.CROSS)

N, E, S, W = 0, 1, 2, 3


@dataclass(frozen=True)
class RectMove:
    """A droop or lift over the rectangle [r1..r2] x [c1..c2], 1-based.

    ``pipe`` is the start row of the pipe being rerouted.
    """

    kind: str  # "droop" | "lift"
    r1: int
    c1: int
    r2: int
    c2: int
    pipe: int


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
    """Yield rewritten grids for every droop applicable to ``flat``."""
    for steps in traces:
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
                        yield new


def _lift_candidates(flat, n, traces):
    """Yield rewritten grids for every lift applicable to ``flat``."""
    for steps in traces:
        t = 0
        m = len(steps)
        while t < m:
            idx, entry, out = steps[t]
            if not (entry == E and out == W):
                t += 1
                continue
            start = t
            while t < m and steps[t][1] == E and steps[t][2] == W:
                t += 1
            # run of horizontal passages, east to west: steps[start:t]
            r2 = steps[start][0] // n
            east = [(steps[i][0] % n, _EW) for i in range(start, t)]
            if start > 0:
                idx2, e2, o2 = steps[start - 1]
                if e2 == S and o2 == W:
                    east.append((idx2 % n, _SW))
            west = [(steps[i][0] % n, _EW) for i in range(start, t)]
            if t < m:
                idx2, e2, o2 = steps[t]
                if e2 == E and o2 == S:
                    west.append((idx2 % n, _ES))
            for c2, ekind in east:
                for c1, xkind in west:
                    if c1 >= c2:
                        continue
                    for r1 in range(r2):
                        new = _lift_rewrite(
                            flat, n, r1, c1, r2, c2, ekind, xkind
                        )
                        if new is not None:
                            yield new


# ---------------------------------------------------------------------------
# public move application


def _pipe_steps(D: Diagram, pipe: int):
    _, traces, violations = _trace(D.flat(), D.n)
    if violations:
        raise MoveRejected("diagram is not a valid reduced pipe dream")
    if not 1 <= pipe <= D.n:
        raise MoveRejected(f"no pipe {pipe}")
    return {idx: (e, o) for idx, e, o in traces[pipe - 1]}


def _check_move(D: Diagram, move: RectMove, kind: str):
    if D.dominoes:
        raise MoveRejected("moves apply to unpaired diagrams only")
    if move.kind != kind:
        raise MoveRejected(f"expected a {kind} move, got {move.kind}")
    if not (1 <= move.r1 < move.r2 <= D.n and 1 <= move.c1 < move.c2 <= D.n):
        raise MoveRejected("rectangle does not lie inside the grid")


def apply_droop(D: Diagram, move: RectMove) -> Diagram:
    """Apply a droop; raises :class:`MoveRejected` when it does not apply."""
    _check_move(D, move, "droop")
    n = D.n
    flat = D.flat()
    on = _pipe_steps(D, move.pipe)
    r1, c1, r2, c2 = move.r1 - 1, move.c1 - 1, move.r2 - 1, move.c2 - 1
    if on.get(r1 * n + c1) != (E, S):
        raise MoveRejected("pipe has no ES corner at the rectangle's northwest")
    for c in range(c1 + 1, c2):
        if on.get(r1 * n + c) != (E, W):
            raise MoveRejected("pipe does not run west along the top row")
    ekind = {(E, W): _EW, (N, W): _WN}.get(on.get(r1 * n + c2))
    if ekind is None:
        raise MoveRejected("entry cell is not an EW or WN tile of the pipe")
    for r in range(r1 + 1, r2):
        if on.get(r * n + c1) != (N, S):
            raise MoveRejected("pipe does not run south along the west column")
    xkind = {(N, S): _NS, (N, W): _WN}.get(on.get(r2 * n + c1))
    if xkind is None:
        raise MoveRejected("exit cell is not an NS or WN tile of the pipe")
    new = _droop_rewrite(flat, n, r1, c1, r2, c2, ekind, xkind)
    return _finish_move(D, new)


def apply_lift(D: Diagram, move: RectMove) -> Diagram:
    """Apply a lift; raises :class:`MoveRejected` when it does not apply."""
    _check_move(D, move, "lift")
    n = D.n
    flat = D.flat()
    on = _pipe_steps(D, move.pipe)
    r1, c1, r2, c2 = move.r1 - 1, move.c1 - 1, move.r2 - 1, move.c2 - 1
    for c in range(c1 + 1, c2):
        if on.get(r2 * n + c) != (E, W):
            raise MoveRejected("pipe does not run west along the bottom row")
    ekind = {(E, W): _EW, (S, W): _SW}.get(on.get(r2 * n + c2))
    if ekind is None:
        raise MoveRejected("east end is not an EW or SW tile of the pipe")
    xkind = {(E, W): _EW, (E, S): _ES}.get(on.get(r2 * n + c1))
    if xkind is None:
        raise MoveRejected("west end is not an EW or ES tile of the pipe")
    new = _lift_rewrite(flat, n, r1, c1, r2, c2, ekind, xkind)
    return _finish_move(D, new)


def _finish_move(D: Diagram, new) -> Diagram:
    if new is None:
        raise MoveRejected("rewrite would superimpose segments illegally")
    if _trace(new, D.n)[2]:
        raise MoveRejected("result is not a valid reduced diagram")
    return Diagram.from_flat(D.n, new)


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
        for new in chain(
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
