import hashlib
import json
import os
import random
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
    qbpd_polynomial,
    stats_for_group,
    summarize,
    weight_cells,
)
from qbpd.diagram import Diagram, rothe_diagram
from qbpd.errors import IdentityPermutation, InvalidDiagram
from qbpd.moves import enumerate_qbpds
from qbpd.oracle import (
    quantum_double_schubert_defining,
    quantum_double_schubert_transition,
    transition_rhs,
)
from qbpd.perm import (
    Permutation,
    embed,
    enumerate_symmetric_group,
    length,
    make_permutation,
)
from qbpd.polyring import Poly, _narrow
from qbpd.rows import map_rows

from conftest import cancellation_free, cycle_down, cycle_up


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


def wt(D):
    """Monomial weight: prod_E x_i prod_Q q_i prod_NQ (-q_i)."""
    return bwt(D).specialize(zero_y=True)


def test_wt():
    R = rothe_diagram(make_permutation([4, 2, 1, 3]))
    x = Poly.x(1, 4)
    assert wt(R) == x * x * x * Poly.x(2, 4)
    ident = rothe_diagram(make_permutation([1, 2, 3]))
    assert wt(ident) == Poly.one(3)


def test_wt_matches_specialized_bwt():
    # the monomial weight from the cells, against bwt at y = 0
    for w in enumerate_symmetric_group(3):
        for D in enumerate_qbpds(w):
            cells = weight_cells(D)
            expect = Poly.const((-1) ** len(cells.NQ), w.n)
            for r, _ in sorted(cells.Q) + sorted(cells.NQ):
                expect = expect * Poly.q(r, w.n)
            for r, _ in sorted(cells.E):
                expect = expect * Poly.x(r, w.n)
            assert wt(D) == expect


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
    assert summarize(3, stats_for_group(3, jobs=1)).total == 0
    s4 = summarize(4, stats_for_group(4, jobs=1))
    assert s4.total == 5
    assert s4.max_cancellations == 2
    assert s4.argmax.images == (4, 1, 3, 2)
    assert abs(s4.average - 5 / 24) < 1e-12


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
        "from qbpd.rows import resolve_jobs\n"
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


S6_SHUFFLED = list(enumerate_symmetric_group(6))
random.Random(6).shuffle(S6_SHUFFLED)


@pytest.mark.parametrize("size", [4, 5, 31, 32, 33, 47, 720])
def test_map_rows_keeps_the_given_order(size):
    # at two jobs, 32 rows are the first with chunks of two
    perms = S6_SHUFFLED[:size]
    assert map_rows(length, perms, 2) == [length(w) for w in perms]


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_map_rows_whatever_the_default_start_method(method):
    # from Python 3.14 the default on Linux is forkserver
    import multiprocessing

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    src = str(Path(qbpd.__file__).resolve().parent.parent)
    code = (
        "import multiprocessing\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from qbpd.analysis import enumerate_symmetric_group\n"
        "from qbpd.perm import length\n"
        "from qbpd.rows import map_rows\n"
        "perms = list(enumerate_symmetric_group(5))\n"
        "print(map_rows(length, perms, 2) == list(map(length, perms)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_map_rows_hands_the_pool_few_tasks(monkeypatch):
    # each task is a round trip to the parent; S_6 goes in 16 of them
    import multiprocessing.pool

    chunks = []
    pool_map = multiprocessing.pool.Pool.map

    def spy(self, fn, iterable, chunksize=None):
        chunks.append(chunksize)
        return pool_map(self, fn, iterable, chunksize)

    monkeypatch.setattr(multiprocessing.pool.Pool, "map", spy)
    assert map_rows(length, S6_SHUFFLED, 2) == [length(w) for w in S6_SHUFFLED]
    assert len(chunks) == 1 and -(-720 // chunks[0]) <= 16


def test_map_rows_starts_no_more_workers_than_rows(monkeypatch):
    import multiprocessing.context

    processes = []
    pool = multiprocessing.context.ForkContext.Pool

    def spy(self, n=None, *args, **kwargs):
        processes.append(n)
        return pool(self, n, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.ForkContext, "Pool", spy)
    perms = S6_SHUFFLED[:4]
    assert map_rows(length, perms, 6) == [length(w) for w in perms]
    assert processes == [4]


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
    import hashlib
    from itertools import groupby

    from qbpd.analysis import _column_weight
    from qbpd.columns import walk
    from qbpd.diagram import TileKind

    G, F = {-1: 0, 0: 1}, {-1: 0, 0: 1}  # by run length
    for L in range(1, 8):
        G[L] = 2 * G[L - 1] + G[L - 2]
        F[L] = F[L - 1] + F[L - 2]

    def climbed(tiles, r):
        for t in tiles[r + 1 :]:
            if t not in (TileKind.NS, TileKind.CROSS):
                return t == TileKind.NE
        return False

    fillings = set()

    def extend(c, n, moves, nxt):
        for new, tiles in moves:
            fillings.add((n, c, tiles))
            nxt[new] = n

    for n in range(1, 8):
        for w in enumerate_symmetric_group(n):
            walk(w, n, extend)
    assert len(fillings) == 2703
    exact = []
    for n, c, tiles in sorted(fillings):
        g = f = 1
        for blank, run in groupby(tiles, lambda t: t == TileKind.BLANK):
            if blank:
                L = len(list(run))
                g *= G[L]
                f *= F[L]
        parts, tg, tf, odd = _column_weight(n, c, tiles)
        terms = sorted((qa, sorted(v)) for qa, v in parts.items())
        exact.append(((n, c, tiles), (terms, tg, tf, odd)))
        assert (tg, tf) == (g, f), (n, c, tiles)
        assert sum(map(len, parts.values())) == g
        corners = tiles.count(TileKind.SW)
        climbs = sum(
            t == TileKind.NS and climbed(tiles, r) for r, t in enumerate(tiles)
        )
        assert odd == (corners + climbs) % 2, (n, c, tiles)
    # every packed term, q-part, count and parity; the order of the terms
    # within a part is not pinned
    digest = hashlib.md5(repr(exact).encode()).hexdigest()
    assert digest == "dea4bc64f760e945a6567411ce9c9bdf"


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
        for e in m
    ]
    assert max(exponents) <= n <= limit


def test_is_cancellation_free():
    assert cancellation_free(make_permutation([5, 4, 3, 2, 1]))
    assert cancellation_free(make_permutation([1, 3, 4, 2]))
    assert not cancellation_free(make_permutation([4, 1, 3, 2]))
    assert cancellation_free(cycle_up(2, 2, 4))
    assert cancellation_free(cycle_down(2, 2, 4))


def test_is_classical_bpd():
    # a classical BPD has no q factor: no Q and no NQ cell
    w = make_permutation([2, 1, 4, 3])
    classical = []
    for D in enumerate_qbpds(w):
        cells = weight_cells(D)
        if not cells.Q and not cells.NQ:
            classical.append(D)
    assert len(classical) == 3
    total = Poly.zero(4)
    for D in classical:
        total = total + bwt(D)
    assert total == quantum_double_schubert_defining(w).specialize(zero_q=True)


def test_verify_transition_examples():
    # the transition equation with every polynomial a weight sum
    for images in ([2, 1], [3, 4, 2, 1]):
        w = make_permutation(images)
        assert qbpd_polynomial(w) == transition_rhs(w, qbpd_polynomial)
    with pytest.raises(IdentityPermutation):
        transition_rhs(make_permutation([1, 2]), qbpd_polynomial)


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
            data = json.loads("".join(p.pieces(as_json=True)))
            h.update(json.dumps(data, sort_keys=True).encode())
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
    assert summarize(3, stats_for_group(3, jobs=2)) == SweepSummary(
        n=3, total=0, average=0.0, max_cancellations=0, argmax=identity
    )
    assert WeightCells._fields == ("E", "Q", "NQ")
    cells = weight_cells(rothe_diagram(make_permutation([2, 1])))
    assert cells == WeightCells(E=frozenset({(1, 1)}), Q=frozenset(), NQ=frozenset())
    assert repr(cells) == (
        "WeightCells(E=frozenset({(1, 1)}), Q=frozenset(), NQ=frozenset())"
    )
