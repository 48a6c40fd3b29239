"""Weights of diagrams, the generating polynomial, and cancellation counts.

Each diagram contributes a binomial weight: x_i - y_j for a single empty
cell on row i column j, q_i for a domino whose upper cell is on row i and
for a crossing whose vertical strand moves upward on row i, and -q_i for a
SW corner on row i and for a vertical tile traversed upward on row i.  The
sum of these weights over all diagrams of w is the quantum double Schubert
polynomial of w.

The expansion of each weight into unit monomials contributes 2^{|E|}
"diagram monomials"; comparing with the merged polynomial's sum of
absolute coefficients counts the cancelled pairs, reproducing the
cancellation tables.  Every factor of a weight belongs to one column, so
the sum runs as a dynamic program over the column-state graph of
``columns`` rather than diagram by diagram.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .diagram import _B, _NE, _SW, _X, S, Diagram, _valid_trace
from .columns import walk
from .perm import Permutation, enumerate_symmetric_group
from .polyring import Poly, _mac, _narrow
from .rows import map_rows

__all__ = [
    "WeightCells",
    "CancellationStats",
    "SweepSummary",
    "weight_cells",
    "bwt",
    "qbpd_polynomial",
    "cancellation_stats",
    "stats_for_group",
    "summarize",
]


class WeightCells(NamedTuple):
    """Cells contributing factors: E binomials, Q get q_i, NQ get -q_i."""

    E: frozenset[tuple[int, int]]
    Q: frozenset[tuple[int, int]]
    NQ: frozenset[tuple[int, int]]


class CancellationStats(NamedTuple):
    perm: Permutation
    poly_monomials: int
    qbpd_monomials: int
    cancellations: int
    qbpd_count: int


class SweepSummary(NamedTuple):
    n: int
    total: int
    average: float
    max_cancellations: int
    argmax: Permutation


def _q_cells(flat, n: int, traces):
    """0-based (q cells, -q cells) of a valid unpaired grid.

    Every cell a pipe enters from the south carries q of its row: +q for
    the vertical strand of a CROSS, -q for a vertical tile or a SW corner
    (a SW corner can only be entered from the south).
    """
    up = [idx for steps in traces for idx, entry, _ in steps if entry == S]
    q_cross = [divmod(i, n) for i in up if flat[i] == _X]
    nq = [divmod(i, n) for i in up if flat[i] != _X]
    return q_cross, nq


def weight_cells(D: Diagram) -> WeightCells:
    """Classify the cells of a valid diagram by their weight contribution."""
    flat, _, traces = _valid_trace(D)
    q_cross, nq = _q_cells(flat, D.n, traces)
    blanks = {(i // D.n + 1, i % D.n + 1) for i, t in enumerate(flat) if t == _B}
    E = frozenset(blanks - {(r + dr, c) for r, c in D.dominoes for dr in (0, 1)})
    Q = frozenset((r + 1, c + 1) for r, c in q_cross) | frozenset(D.dominoes)
    NQ = frozenset((r + 1, c + 1) for r, c in nq)
    return WeightCells(E=E, Q=Q, NQ=NQ)


def bwt(D: Diagram) -> Poly:
    """Binomial weight: (-1)^{|NQ|} prod_E (x_i - y_j) prod_{Q u NQ} q_i."""
    cells = weight_cells(D)
    n = D.n
    acc = Poly.const((-1) ** len(cells.NQ), n)
    for r, _ in sorted(cells.Q) + sorted(cells.NQ):
        acc = acc * Poly.q(r, n)
    for r, c in sorted(cells.E):
        acc = acc * Poly.x_minus_y(r, c, n)
    return acc


# ---------------------------------------------------------------------------
# the generating sum and its statistics


@lru_cache(maxsize=None)
def _column_weight(n: int, c: int, tiles: bytes):
    """({q-part: packed terms}, G, F, odd) of one column filling over all its pairings.

    An upward run contributes q of every row it enters from the south:
    -q for its SW corner and vertical tiles, +q for its crossings.  A
    blank on row r is x_r - y_c, or the lower half of a domino weighted by
    q_{r-1} when the cell above is blank, so the blanks contribute one
    continuant down the column.  A pairing is fixed by its domino q-part,
    and a term within a pairing by its x exponents, so no two expanded
    terms of the filling share a key: G, the number of expanded terms, is
    the number of keys, and F, the number of pairings, the number of
    q-parts.  ``odd`` is the parity of the filling's -q factors.  A weight
    depends on n, c and the filling alone, so the cache serves every w of
    the process; callers only read the parts.
    """
    layout = _narrow(n)
    prev: dict = {}  # the terms before the cell above, while it is blank
    terms = {0: 1}
    key, sign, up = 0, 1, False
    for r, t in enumerate(tiles):
        if t == _B:
            nxt = _mac({}, terms, ((layout.x[r], 1), (layout.y[c], -1)))
            if prev:
                _mac(nxt, prev, ((layout.q[r - 1], 1),))
            prev, terms = terms, nxt
            continue
        prev = {}
        if t == _SW:
            up = True
        elif t == _NE:
            up = False
        if up:
            key += layout.q[r]
            if t != _X:
                sign = -sign
    parts: dict = {}
    for k, v in terms.items():
        k += key
        parts.setdefault(k & layout.qmask, []).append((k, v * sign))
    return parts, len(terms), len(parts), sign < 0


# parity sets as bits, even = 1 and odd = 2; an odd factor swaps them
_FLIP = (0, 2, 1, 3)


def _slice(pairs) -> dict:
    """The exact q-slice summed from its (state polynomial, weight terms) pairs."""
    acc: dict = {}
    for poly, terms in pairs:
        _mac(acc, poly, terms)
    return acc


def _slices(plan: dict):
    """Each nonempty q-slice of T_w, one at a time, drained from its plan."""
    while plan:
        _, (_, pairs) = plan.popitem()
        acc = _slice(pairs)
        if acc:
            yield acc


def _accumulate(w: Permutation):
    """(plan of the q-slices of T_w, sum of 2^{|E|}, number of diagrams).

    A dynamic program on :func:`columns.walk`, east to west: each state
    keeps the summed weights of the partial diagrams reaching it, split by
    q-part, with their expanded-term count and diagram count, and a filling
    multiplies them by its column's weight.  Dominoes pair only vertically
    adjacent blanks of one column, so one column weight covers all pairings
    of its filling.  Every part is kept as its product pairs (state
    polynomial, weight terms), and :func:`_slice` sums them into a packed
    term dict only when its state is spent.  Terms with different q-parts
    never cancel, so the parts of the west edge's value are the plan: each
    maps a target q-part to the pairs of one slice.

    Next to its pairs, each part carries the set of |NQ| parities of the
    partial diagrams reaching it; parts that merge join their sets, so a
    plan entry's set is exactly the set of |NQ| parities of the diagrams
    of w with its q-part.
    """
    n = w.n

    # a state's value: [{q-part: [parities, [(state poly, weight terms), ...]]}, G, F]
    def extend(c, value, moves, nxt):
        parts, g, f = value
        built = [(qa, bits, _slice(pairs)) for qa, (bits, pairs) in parts.items()]
        for new, tiles in moves:
            wparts, tg, tf, odd = _column_weight(n, c, tiles)
            entry = nxt.setdefault(new, [{}, 0, 0])
            acc = entry[0]
            for qa, bits, poly in built:
                bits = _FLIP[bits] if odd else bits
                for qb, terms in wparts.items():
                    part = acc.get(qa + qb)
                    if part is None:
                        part = acc[qa + qb] = [0, []]
                    part[0] |= bits
                    part[1].append((poly, terms))
            entry[1] += g * tg
            entry[2] += f * tf

    plan, total_g, total_f = walk(w, [{0: [1, [({0: 1}, ((0, 1),))]]}, 1, 1], extend)
    return plan, total_g, total_f


def qbpd_polynomial(w: Permutation) -> Poly:
    """T_w: the sum of binomial weights over all diagrams of w."""
    plan, _, _ = _accumulate(w)
    return Poly._from_packed(w.n, _slices(plan))


def _abs_sum(terms: dict) -> int:
    return sum(map(abs, terms.values()))


def cancellation_stats(w: Permutation) -> CancellationStats:
    """Monomial counts of T_w against the diagram expansion, and their gap.

    A term that picks -y_j on k cells has y-degree k and the sign
    (-1)^{|NQ|+k}, so two terms on one monomial cancel only when their
    diagrams' |NQ| parities differ.  A slice that one parity reaches
    cancels nothing, in its state parts or at the west column: its sum of
    absolute coefficients is, over its product pairs, the state part's
    times the weight part's, which is the weight part's length since its
    terms are +-1 on distinct keys.  Only the slices both parities reach
    are built.
    """
    plan, qbpd_monomials, count = _accumulate(w)
    poly_monomials = 0
    # one slice is alive at a time, and each is freed with its plan entry
    while plan:
        _, (parities, pairs) = plan.popitem()
        if parities == 3:
            poly_monomials += _abs_sum(_slice(pairs))
        else:
            poly_monomials += sum(_abs_sum(poly) * len(terms) for poly, terms in pairs)
    diff = qbpd_monomials - poly_monomials
    if diff < 0 or diff % 2:
        raise ArithmeticError(
            f"monomial difference {diff} for {w} is not an even surplus"
        )
    return CancellationStats(
        perm=w,
        poly_monomials=poly_monomials,
        qbpd_monomials=qbpd_monomials,
        cancellations=diff // 2,
        qbpd_count=count,
    )


# ---------------------------------------------------------------------------
# sweeps


def stats_for_group(n: int, jobs: int | None = None):
    """CancellationStats for every w in S_n, in lexicographic order.

    Rows run on ``jobs`` workers (``rows.map_rows``); the caller bounds n.
    """
    return map_rows(cancellation_stats, enumerate_symmetric_group(n), jobs)


def summarize(n: int, rows) -> SweepSummary:
    """Total, average and argmax of the cancellations of sweep rows.

    The argmax ties break toward the lexicographically smallest one-line
    notation so results do not depend on worker scheduling.
    """
    total = sum(s.cancellations for s in rows)
    best = max(rows, key=lambda s: (s.cancellations, tuple(-v for v in s.perm.images)))
    return SweepSummary(
        n=n,
        total=total,
        average=total / len(rows),
        max_cancellations=best.cancellations,
        argmax=best.perm,
    )
