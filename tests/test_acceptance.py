"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines).  Every comparison is exact; the stated wall-clock
budgets are asserted where the criteria carry one.
"""

import random
import time

from qbpd.analysis import (
    bwt,
    cancellation_stats,
    is_cancellation_free,
    is_classical_bpd,
    qbpd_polynomial,
    sweep,
    verify_transition,
    weight_cells,
)
from qbpd.columns import column_enumerate
from qbpd.moves import enumerate_qbpds
from qbpd.oracle import (
    double_schubert_defining,
    monk_residual,
    quantum_double_schubert_defining,
    quantum_double_schubert_transition,
)
from qbpd.perm import embed, enumerate_symmetric_group, length, make_permutation
from qbpd.polyring import Poly

from conftest import cycle_down, cycle_up, random_poly


def report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c01_main_identity_s4_s5():
    start = time.monotonic()
    ok = True
    for w in enumerate_symmetric_group(4):
        t = qbpd_polynomial(w)
        ok = (
            ok
            and t == quantum_double_schubert_defining(w)
            and t == quantum_double_schubert_transition(w)
        )
    elapsed4 = time.monotonic() - start
    start = time.monotonic()
    for w in enumerate_symmetric_group(5):
        t = qbpd_polynomial(w)
        ok = (
            ok
            and t == quantum_double_schubert_defining(w)
            and t == quantum_double_schubert_transition(w)
        )
    elapsed5 = time.monotonic() - start
    report("1 (main identity, S4 and S5)", ok and elapsed4 < 5 and elapsed5 < 60)


def test_c02_explicit_sum_4213():
    w = make_permutation([4, 2, 1, 3])
    qs = enumerate_qbpds(w)
    n = 4
    xy = lambda i, j: Poly.x_minus_y(i, j, n)
    q1, q2 = Poly.q(1, n), Poly.q(2, n)
    terms = [
        xy(1, 1) * xy(1, 2) * xy(1, 3) * xy(2, 1),
        q1 * xy(1, 2) * xy(1, 3),
        xy(1, 1) * xy(2, 1) * (-q1),
        q1 * (-q1),
        (-q1) * q2,
    ]
    weights = [bwt(D) for D in qs]
    ok = len(qs) == 5
    # term by term: each listed term is hit by exactly one diagram weight
    for t in terms:
        ok = ok and sum(1 for p in weights if p == t) == 1
    total = Poly.zero(n)
    for t in terms:
        total = total + t
    ok = ok and qbpd_polynomial(w) == total
    report("2 (4213: five diagrams, exact five-term sum)", ok)


def test_c03_table1_reproduction():
    expected = {
        (4, 1, 3, 2): (50, 54, 2, 9),
        (3, 1, 4, 2): (18, 20, 1, 4),
        (1, 4, 3, 2): (46, 48, 1, 9),
        (2, 1, 4, 3): (12, 14, 1, 5),
    }
    ok = True
    total = 0
    for w in enumerate_symmetric_group(4):
        s = cancellation_stats(w)
        total += s.cancellations
        row = (s.poly_monomials, s.qbpd_monomials, s.cancellations, s.qbpd_count)
        if w.images in expected:
            ok = ok and row == expected[w.images]
        else:
            ok = ok and s.cancellations == 0
    ok = ok and total == 5
    report("3 (Table 1 rows and S4 total 5)", ok)


def test_c04_table2_reproduction():
    ok = sweep(3, jobs=1).total == 0
    start = time.monotonic()
    s5 = sweep(5, jobs=1)
    elapsed5 = time.monotonic() - start
    ok = (
        ok
        and s5.total == 1350
        and s5.max_cancellations == 153
        and s5.argmax.images == (5, 1, 4, 3, 2)
        and elapsed5 < 120
    )
    start = time.monotonic()
    s6 = sweep(6)
    elapsed6 = time.monotonic() - start
    ok = (
        ok
        and s6.total == 570549
        and s6.max_cancellations == 21510
        and s6.argmax.images == (6, 1, 5, 4, 3, 2)
        and elapsed6 < 900
    )
    row = cancellation_stats(make_permutation([6, 1, 5, 4, 3, 2]))
    ok = ok and (
        row.poly_monomials,
        row.qbpd_monomials,
        row.cancellations,
        row.qbpd_count,
    ) == (97032, 140052, 21510, 1038)
    report("4 (Table 2: S3, S5, S6 totals and the 615432 row)", ok)


def test_c05_closure_completeness():
    ok = True
    for w in enumerate_symmetric_group(4):
        ok = ok and enumerate_qbpds(w) == column_enumerate(w)
    report("5 (closure equals column enumeration on S4)", ok)


def test_c06_stability():
    ok = True
    for w in enumerate_symmetric_group(4):
        ok = ok and qbpd_polynomial(embed(w, 5)) == qbpd_polynomial(w).embed(5)
    report("6 (stability under embedding S4 -> S5)", ok)


def test_c07_transition_equation():
    ok = True
    for w in enumerate_symmetric_group(4):
        if w.is_identity():
            continue
        ok = ok and verify_transition(w).is_zero()
    pool = [w for w in enumerate_symmetric_group(5) if not w.is_identity()]
    for w in random.Random(0).sample(pool, 20):
        ok = ok and verify_transition(w).is_zero()
    report("7 (transition residual zero: all S4, 20 seeded S5)", ok)


def test_c08_monk_rule():
    ok = True
    for w in enumerate_symmetric_group(4):
        for k in (1, 2, 3):
            ok = ok and monk_residual(k, w).is_zero()
    report("8 (Monk residual zero for k<=3, all S4)", ok)


def test_c09_specializations():
    ok = True
    for w in enumerate_symmetric_group(4):
        t = qbpd_polynomial(w)
        classical = double_schubert_defining(w)
        ok = ok and t.specialize(zero_q=True) == classical
        subset = Poly.zero(4)
        for D in enumerate_qbpds(w):
            if is_classical_bpd(D):
                subset = subset + bwt(D)
        ok = ok and subset == classical
        ok = ok and t.specialize(zero_y=True, zero_q=True) == classical.specialize(
            zero_y=True
        )
    report("9 (q=0 and y=q=0 specializations on S4)", ok)


def test_c10_cancellation_free_classes():
    ok = True
    for n in (3, 4, 5, 6):
        ok = ok and is_cancellation_free(make_permutation(range(n, 0, -1)))
    for t in range(1, 5):
        for k in range(1, 6 - t):
            ok = ok and is_cancellation_free(cycle_up(t, k, 5))
            ok = ok and is_cancellation_free(cycle_down(t, k, 5))
    report("10 (cancellation-free: w0 of S3..S6, cycles in S5)", ok)


def test_c11_property_suites():
    ok = True
    rng = random.Random(20250810)
    for _ in range(200):
        f = random_poly(rng, 4, terms=5)
        i = rng.randint(1, 3)
        ok = ok and f.divided_difference_y(i).divided_difference_y(i).is_zero()
        j = rng.randint(1, 2)
        lhs = (
            f.divided_difference_y(j)
            .divided_difference_y(j + 1)
            .divided_difference_y(j)
        )
        rhs = (
            f.divided_difference_y(j + 1)
            .divided_difference_y(j)
            .divided_difference_y(j + 1)
        )
        ok = ok and lhs == rhs
    for n in (1, 2, 3, 4):
        for w in enumerate_symmetric_group(n):
            lw = length(w)
            for D in enumerate_qbpds(w):
                c = weight_cells(D)
                ok = ok and len(c.E) + 2 * len(c.Q) + 2 * len(c.NQ) == lw
    ok = ok and sweep(4, jobs=1) == sweep(4, jobs=2)
    report("11 (divided-difference properties, degrees, sweep determinism)", ok)
