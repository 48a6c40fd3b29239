"""The column-state graph: its paths and the weight sum run over it."""

import hashlib
import random

from qbpd.analysis import (
    _abs_sum,
    _accumulate,
    _slices,
    cancellation_stats,
    weight_cells,
)
from qbpd.columns import _column_moves, column_enumerate, column_graph, flat_diagrams
from qbpd.moves import _closure, enumerate_qbpds
from qbpd.oracle import quantum_double_schubert_transition
from qbpd.perm import enumerate_symmetric_group, make_permutation, parse_permutation
from qbpd.polyring import Poly, _narrow


def test_column_enumerate_equals_closure_s6():
    for n in range(1, 7):
        for w in enumerate_symmetric_group(n):
            assert column_enumerate(w) == enumerate_qbpds(w), w


def test_walk_tilings_equal_closure_s7_sample_and_s8():
    sample = random.Random(7).sample(list(enumerate_symmetric_group(7)), 40)
    rows = [parse_permutation(t) for t in ("74218365", "18765432", "81765432")]
    for w in sample + rows:
        walked = [tiles for tiles, _ in flat_diagrams(w, unpaired=True)]
        assert walked == sorted(_closure(w)), w


def test_accumulate_golden_s6():
    # digest computed with the per-diagram expansion over the move closure;
    # a slice that one |NQ| parity reaches cancels nothing, so its closed
    # form, which cancellation_stats uses, equals its exact sum of |coef|
    h = hashlib.md5()
    qmask = _narrow(6).qmask
    targets = one_parity = 0
    for w in enumerate_symmetric_group(6):
        plan, G, F = _accumulate(w)
        closed = {
            q: sum(_abs_sum(poly) * len(terms) for poly, terms in pairs)
            for q, (parities, pairs) in plan.items()
            if parities != 3
        }
        targets += len(plan)
        one_parity += len(closed)
        acc = {}
        for part in _slices(plan):
            acc.update(part)
            q = next(iter(part)) & qmask
            if q in closed:
                assert closed.pop(q) == _abs_sum(part), (w, q)
        assert not closed, w
        h.update(repr((w.images, sorted(acc.items()), G, F)).encode())
    assert h.hexdigest() == "b2a5d8fafbeb34f58a2d00b91bee99f1"
    assert (targets, one_parity) == (14534, 8296)


def test_plan_parities_match_the_diagrams_s5():
    # independently of the DP: the |NQ| parities of the diagrams of w that
    # share one q-monomial, read off weight_cells, make up the plan's set
    pairs = mixed = 0
    for w in (w for n in range(1, 6) for w in enumerate_symmetric_group(n)):
        q = _narrow(w.n).q
        found = {}
        for D in enumerate_qbpds(w):
            cells = weight_cells(D)
            key = sum(q[r - 1] for r, _ in cells.Q | cells.NQ)
            found[key] = found.get(key, 0) | (2 if len(cells.NQ) % 2 else 1)
        plan = _accumulate(w)[0]
        assert {key: parities for key, (parities, _) in plan.items()} == found, w
        pairs += len(found)
        mixed += sum(parities == 3 for parities in found.values())
    assert (pairs, mixed) == (917, 199)


def test_accumulate_q_slices_partition_t_w():
    # terms with different q-parts never cancel, so T_w comes one q-part at
    # a time: each slice holds one q-part, and the slices tile T_w
    perms = [w for n in range(1, 6) for w in enumerate_symmetric_group(n)]
    for w in perms + [parse_permutation("654321")]:
        n = w.n
        slices = list(_slices(_accumulate(w)[0]))
        qparts = []
        for part in slices:
            monomials = Poly._from_packed(n, [part]).terms()
            assert len({m.qexp for m in monomials}) == 1, w
            qparts.append(next(iter(monomials)).qexp)
        assert len(set(qparts)) == len(slices), w
        union = {}
        for part in slices:
            union.update(part)
        assert len(union) == sum(map(len, slices)), w
        expected = quantum_double_schubert_transition(w)
        assert Poly._from_packed(n, [union]) == expected, w
    for text, count, largest, total in (
        ("654321", 61, 15944, 113416),
        ("615432", 49, 11576, 46026),
    ):
        sizes = [len(part) for part in _slices(_accumulate(parse_permutation(text))[0])]
        assert (len(sizes), max(sizes), sum(sizes)) == (count, largest, total)


def test_cancellation_stats_4721653():
    # poly_monomials agrees with the transition oracle's term count
    s = cancellation_stats(make_permutation([4, 7, 2, 1, 6, 5, 3]))
    assert (s.poly_monomials, s.qbpd_monomials, s.cancellations, s.qbpd_count) == (
        789903,
        1430023,
        320060,
        9298,
    )


def test_column_moves_of_one_column():
    # tiles: 0 blank, 1 ES, 2 WN, 3 SW, 4 NE, 5 EW, 6 NS, 7 CROSS
    def moves(rows, k):
        return {tiles: new for new, tiles in _column_moves(rows, k, 3)}

    # pipe 1 ends here from row 2; pipe 0 on row 0 runs down to row 1 or
    # passes, and no upward run can open on row 1 with no closer below
    assert moves((0, 2), 1) == {bytes([1, 2, 1]): (1,), bytes([5, 0, 1]): (0,)}
    # pipe 0 on row 1 closes an upward run from row 0, or passes
    assert moves((1, 2), 1) == {bytes([3, 4, 1]): (0,), bytes([0, 5, 1]): (1,)}
    # pipes 0 and 1 have crossed already, so pipe 0 may not cross the run
    # of pipe 1 down to the bottom edge: a dead end
    assert moves((2, 0), 1) == {}


def test_fillings_of_a_state_are_distinct():
    # a state and its filling's tiles fix the next state, so distinct
    # fillings make distinct paths: the set comparison above hides no
    # duplicate diagram
    for n in range(1, 6):
        for w in enumerate_symmetric_group(n):
            for layer in column_graph(w):
                for moves in layer.values():
                    assert len({tiles for _, tiles in moves}) == len(moves)
