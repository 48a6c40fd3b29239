import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbpd

from qbpd.analysis import (
    CancellationStats,
    SweepSummary,
    WeightCells,
    bwt,
    cancellation_stats,
    is_cancellation_free,
    is_classical_bpd,
    qbpd_polynomial,
    stats_for_group,
    sweep,
    verify_transition,
    weight_cells,
    wt,
)
from qbpd.diagram import Diagram, rothe_diagram
from qbpd.errors import IdentityPermutation, InvalidDiagram, SizeLimit
from qbpd.moves import enumerate_qbpds
from qbpd.oracle import (
    double_schubert_defining,
    quantum_double_schubert_defining,
    quantum_double_schubert_transition,
)
from qbpd.perm import (
    Permutation,
    embed,
    enumerate_symmetric_group,
    make_permutation,
)
from qbpd.polyring import Poly, _narrow

from conftest import cycle_down, cycle_up


def test_weight_cells_rothe_4213():
    cells = weight_cells(rothe_diagram(make_permutation([4, 2, 1, 3])))
    assert cells.E == frozenset({(1, 1), (1, 2), (1, 3), (2, 1)})
    assert cells.Q == frozenset() and cells.NQ == frozenset()


def test_weight_cells_minus_q1(minus_q1_2143):
    cells = weight_cells(minus_q1_2143)
    assert cells.NQ == frozenset({(1, 2)})
    assert cells.E == frozenset() and cells.Q == frozenset()
    assert bwt(minus_q1_2143) == -Poly.q(1, 4)


def test_weight_cells_domino_diagram():
    base = rothe_diagram(make_permutation([4, 2, 1, 3]))
    D = Diagram(n=4, tiles=base.tiles, dominoes=frozenset({(1, 1)}))
    cells = weight_cells(D)
    assert cells.Q == frozenset({(1, 1)})
    assert cells.E == frozenset({(1, 2), (1, 3)})
    assert bwt(D) == Poly.q(1, 4) * Poly.x_minus_y(1, 2, 4) * Poly.x_minus_y(1, 3, 4)


def test_weight_cells_requires_valid():
    bad = Diagram(n=2, tiles=((0, 0), (0, 0)))
    with pytest.raises(InvalidDiagram):
        weight_cells(bad)


def test_wt():
    R = rothe_diagram(make_permutation([4, 2, 1, 3]))
    x = Poly.x(1, 4)
    assert wt(R) == x * x * x * Poly.x(2, 4)
    ident = rothe_diagram(make_permutation([1, 2, 3]))
    assert wt(ident) == Poly.one(3)


def test_wt_matches_specialized_bwt():
    for w in enumerate_symmetric_group(3):
        for D in enumerate_qbpds(w):
            assert wt(D) == bwt(D).specialize(zero_y=True)


def test_wt_12543_domino_diagram():
    # a diagram of 12543 contributing x3*q1 in monomial weight
    target_bwt = Poly.q(1, 5) * Poly.x_minus_y(3, 4, 5)
    pool = enumerate_qbpds(make_permutation([1, 2, 5, 4, 3]))
    matches = [D for D in pool if bwt(D) == target_bwt]
    assert matches
    assert all(wt(D) == Poly.q(1, 5) * Poly.x(3, 5) for D in matches)


def test_qbpd_polynomial_small():
    assert qbpd_polynomial(make_permutation([1, 2, 3])) == Poly.one(3)
    n = 3
    expect = Poly.x_minus_y(1, 1, n) * Poly.x_minus_y(1, 2, n) * Poly.x_minus_y(
        2, 1, n
    ) + Poly.q(1, n) * Poly.x_minus_y(1, 2, n)
    assert qbpd_polynomial(make_permutation([3, 2, 1])) == expect


def test_bwt_multiset_1432():
    # partial binomial cancellation: q1(x1 - y2) against q1(y2 - x3)
    pool = enumerate_qbpds(make_permutation([1, 4, 3, 2]))
    weights = [bwt(D) for D in pool]
    q1 = Poly.q(1, 4)
    assert any(p == q1 * Poly.x_minus_y(1, 2, 4) for p in weights)
    assert any(p == -(q1 * Poly.x_minus_y(3, 2, 4)) for p in weights)


def test_complete_cancellation_2143():
    weights = [bwt(D) for D in enumerate_qbpds(make_permutation([2, 1, 4, 3]))]
    q1 = Poly.q(1, 4)
    assert weights.count(q1) == 1 and weights.count(-q1) == 1


def test_cancellation_stats_table_rows():
    expected = {
        (4, 1, 3, 2): (50, 54, 2, 9),
        (3, 1, 4, 2): (18, 20, 1, 4),
        (1, 4, 3, 2): (46, 48, 1, 9),
        (2, 1, 4, 3): (12, 14, 1, 5),
    }
    for images, row in expected.items():
        s = cancellation_stats(make_permutation(images))
        assert (
            s.poly_monomials,
            s.qbpd_monomials,
            s.cancellations,
            s.qbpd_count,
        ) == row


def test_cancellation_stats_consistency():
    for w in enumerate_symmetric_group(4):
        s = cancellation_stats(w)
        assert s.qbpd_monomials - s.poly_monomials == 2 * s.cancellations
        assert s.cancellations >= 0
        assert s.poly_monomials == qbpd_polynomial(w).counts()[1]
        assert s.qbpd_count == len(enumerate_qbpds(w))


def test_sweep_small():
    assert sweep(3, jobs=1).total == 0
    s4 = sweep(4, jobs=1)
    assert s4.total == 5
    assert s4.max_cancellations == 2
    assert s4.argmax.images == (4, 1, 3, 2)
    assert abs(s4.average - 5 / 24) < 1e-12
    with pytest.raises(SizeLimit):
        sweep(7, jobs=1)


def test_stats_for_group_lex_order():
    rows = stats_for_group(3, jobs=1)
    assert [s.perm.images for s in rows] == [
        w.images for w in enumerate_symmetric_group(3)
    ]


def test_stats_for_group_order_independent_of_workers():
    # workers take permutations longest first; rows come back in lex order
    rows = stats_for_group(5, jobs=2)
    assert rows == stats_for_group(5, jobs=1)
    assert [s.perm.images for s in rows] == [
        w.images for w in enumerate_symmetric_group(5)
    ]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)
def test_default_jobs_follow_cpu_affinity():
    # a child pinned to one usable CPU starts one worker, not one per CPU
    src = str(Path(qbpd.__file__).resolve().parent.parent)
    code = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from qbpd.analysis import resolve_jobs\n"
        "print(resolve_jobs(None))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"


def test_stats_for_group_rows_are_records_from_workers():
    # a NamedTuple equals a plain tuple, so the equality above misses the type
    for s in stats_for_group(5, jobs=2):
        assert type(s) is CancellationStats
        assert type(s.perm) is Permutation


def test_weight_sum_matches_per_diagram_weights_s5():
    # the column-run kernel against bwt/weight_cells of every diagram; S_1
    # has an empty q block
    for w in (w for n in range(1, 6) for w in enumerate_symmetric_group(n)):
        pool = enumerate_qbpds(w)
        terms: dict = {}
        for D in pool:
            for key, c in bwt(D).terms().items():
                terms[key] = terms.get(key, 0) + c
        s = cancellation_stats(w)
        assert qbpd_polynomial(w) == Poly(w.n, terms)
        assert s.qbpd_monomials == sum(2 ** len(weight_cells(D).E) for D in pool)
        assert s.qbpd_count == len(pool)


def test_column_weight_counts_are_run_continuants_s7():
    # G counts a filling's expanded terms and F its pairings; both are
    # read off the keys of its weight, so two terms sharing a key would
    # merge and fall short of the run continuants below.  Its parity is
    # that of its -q factors: its SW corners and the vertical tiles whose
    # strand runs down to an NE corner, which a pipe climbs
    from qbpd.analysis import _column_weight
    from qbpd.columns import column_graph
    from qbpd.diagram import TileKind, _blank_runs

    G, F = {-1: 0, 0: 1}, {-1: 0, 0: 1}  # by run length
    for L in range(1, 8):
        G[L] = 2 * G[L - 1] + G[L - 2]
        F[L] = F[L - 1] + F[L - 2]

    def climbed(tiles, r):
        for t in tiles[r + 1 :]:
            if t not in (TileKind.NS, TileKind.CROSS):
                return t == TileKind.NE
        return False

    fillings = {
        (n, n - 1 - depth, tiles)
        for n in range(1, 8)
        for w in enumerate_symmetric_group(n)
        for depth, layer in enumerate(column_graph(w))
        for moves in layer.values()
        for _, tiles in moves
    }
    assert len(fillings) == 2703
    for n, c, tiles in fillings:
        g = f = 1
        for _, top, bottom in _blank_runs(tiles, 1):
            g *= G[bottom - top + 1]
            f *= F[bottom - top + 1]
        parts, tg, tf, odd = _column_weight(n, c, tiles)
        assert (tg, tf) == (g, f), (n, c, tiles)
        assert sum(map(len, parts.values())) == g
        corners = tiles.count(TileKind.SW)
        climbs = sum(
            t == TileKind.NS and climbed(tiles, r) for r, t in enumerate(tiles)
        )
        assert odd == (corners + climbs) % 2, (n, c, tiles)


def test_parity_shortcut_needs_true_parities(monkeypatch):
    # cancellation_stats counts a slice that one |NQ| parity reaches in
    # closed form; were every filling read as even, every slice would be,
    # and only the cancellations east of the west column would be counted
    import qbpd.analysis

    rows = [make_permutation([6, 1, 5, 4, 3, 2]), make_permutation([4, 1, 3, 2])]
    true = [cancellation_stats(w) for w in rows]
    assert [s.cancellations for s in true] == [21510, 2]
    weight = qbpd.analysis._column_weight
    monkeypatch.setattr(
        qbpd.analysis,
        "_column_weight",
        lambda n, c, tiles: weight(n, c, tiles)[:3] + (False,),
    )
    even = [cancellation_stats(w) for w in rows]
    assert [s.cancellations for s in even] == [11801, 0]
    assert all(a != b for a, b in zip(even, true))


def test_packed_field_width_bound_w0_s4():
    # every exponent of one diagram's weight is at most n, which fits a field
    n = 4
    shifts = _narrow(n).shifts
    assert shifts[-1] == 0
    limit = (1 << shifts[-2]) - 1
    exponents = [
        e
        for D in enumerate_qbpds(make_permutation([4, 3, 2, 1]))
        for m in bwt(D).terms()
        for e in m.flat()
    ]
    assert max(exponents) <= n <= limit


def test_is_cancellation_free():
    assert is_cancellation_free(make_permutation([5, 4, 3, 2, 1]))
    assert is_cancellation_free(make_permutation([1, 3, 4, 2]))
    assert not is_cancellation_free(make_permutation([4, 1, 3, 2]))
    assert is_cancellation_free(cycle_up(2, 2, 4))
    assert is_cancellation_free(cycle_down(2, 2, 4))


def test_is_classical_bpd():
    pool = enumerate_qbpds(make_permutation([2, 1, 4, 3]))
    classical = [D for D in pool if is_classical_bpd(D)]
    assert len(classical) == 3
    total = Poly.zero(4)
    for D in classical:
        total = total + bwt(D)
    assert total == double_schubert_defining(make_permutation([2, 1, 4, 3]))


def test_verify_transition_examples():
    assert verify_transition(make_permutation([2, 1])).is_zero()
    assert verify_transition(make_permutation([3, 4, 2, 1])).is_zero()
    with pytest.raises(IdentityPermutation):
        verify_transition(make_permutation([1, 2]))


def test_stability_embedding():
    for images in ([2, 1, 4, 3], [4, 2, 1, 3], [3, 2, 1]):
        w = make_permutation(images)
        lifted = qbpd_polynomial(embed(w, w.n + 1))
        assert lifted == qbpd_polynomial(w).embed(w.n + 1)


def test_main_identity_spot():
    for images in ([4, 2, 1, 3], [3, 1, 4, 2], [2, 4, 1, 3]):
        w = make_permutation(images)
        assert qbpd_polynomial(w) == quantum_double_schubert_defining(w)


def test_golden_output_s5():
    # text and JSON of the weight sum and of both oracles over all of S_5,
    # pinned to the digest of the tuple-keyed implementation
    h = hashlib.md5()
    for w in enumerate_symmetric_group(5):
        for route in (
            qbpd_polynomial,
            quantum_double_schubert_defining,
            quantum_double_schubert_transition,
        ):
            p = route(w)
            h.update(p.canonical_text().encode())
            h.update(json.dumps(p.to_json_dict(), sort_keys=True).encode())
    assert h.hexdigest() == "0ff6a43baf5c9afec02e72a0a831e174"


def test_records_keep_their_fields():
    w = make_permutation([3, 4, 2, 1])
    stats = cancellation_stats(w)
    assert CancellationStats._fields == (
        "perm", "poly_monomials", "qbpd_monomials", "cancellations", "qbpd_count"
    )
    assert stats == CancellationStats(
        perm=w, poly_monomials=60, qbpd_monomials=60, cancellations=0, qbpd_count=6
    )
    assert SweepSummary._fields == (
        "n", "total", "average", "max_cancellations", "argmax"
    )
    identity = make_permutation([1, 2, 3])
    assert sweep(3) == SweepSummary(
        n=3, total=0, average=0.0, max_cancellations=0, argmax=identity
    )
    assert WeightCells._fields == ("E", "Q", "NQ")
    cells = weight_cells(rothe_diagram(make_permutation([2, 1])))
    assert cells == WeightCells(E=frozenset({(1, 1)}), Q=frozenset(), NQ=frozenset())
    assert repr(cells) == (
        "WeightCells(E=frozenset({(1, 1)}), Q=frozenset(), NQ=frozenset())"
    )
