import pytest

from qbpd.errors import OutOfRange
from qbpd.oracle import (
    monk_residual,
    q_interval,
    quantum_double_schubert_defining,
    quantum_double_schubert_transition,
    transition_rhs,
)
from qbpd.perm import embed, enumerate_symmetric_group, length, make_permutation
from qbpd.polyring import Poly

from conftest import divided_difference_chain, reduced_word


def double_schubert_defining(w):
    """The classical double Schubert polynomial: the quantum one at q = 0."""
    return quantum_double_schubert_defining(w).specialize(zero_q=True)


def explicit_sum_4213():
    """The five-term product expression for the 4213 polynomial."""
    n = 4
    xy = lambda i, j: Poly.x_minus_y(i, j, n)
    q1, q2 = Poly.q(1, n), Poly.q(2, n)
    return (
        xy(1, 1) * xy(1, 2) * xy(1, 3) * xy(2, 1)
        + q1 * xy(1, 2) * xy(1, 3)
        + xy(1, 1) * xy(2, 1) * (-q1)
        + q1 * (-q1)
        + (-q1) * q2
    )


def test_defining_small():
    assert quantum_double_schubert_defining(make_permutation([2, 1])) == Poly.x_minus_y(
        1, 1, 2
    )
    assert quantum_double_schubert_defining(make_permutation([1, 2])) == Poly.one(2)
    n = 3
    expect = Poly.x_minus_y(1, 2, n) * (
        Poly.x_minus_y(1, 1, n) * Poly.x_minus_y(2, 1, n) + Poly.q(1, n)
    )
    assert quantum_double_schubert_defining(make_permutation([3, 2, 1])) == expect


def test_defining_4213_explicit_sum():
    got = quantum_double_schubert_defining(make_permutation([4, 2, 1, 3]))
    assert got == explicit_sum_4213()


def test_weighted_count_4132():
    p = quantum_double_schubert_defining(make_permutation([4, 1, 3, 2]))
    distinct, weighted = p.counts()
    assert weighted == 50
    assert distinct <= weighted


def test_classical_small():
    assert double_schubert_defining(make_permutation([1, 2, 3])) == Poly.one(3)
    n = 3
    expect = (
        Poly.x_minus_y(1, 1, n) * Poly.x_minus_y(1, 2, n) * Poly.x_minus_y(2, 1, n)
    )
    assert double_schubert_defining(make_permutation([3, 2, 1])) == expect
    n = 4
    expect = (
        Poly.x_minus_y(1, 1, n)
        * Poly.x_minus_y(1, 2, n)
        * Poly.x_minus_y(1, 3, n)
        * Poly.x_minus_y(2, 1, n)
    )
    assert double_schubert_defining(make_permutation([4, 2, 1, 3])) == expect


def test_q_interval():
    assert q_interval(1, 2, 3) == Poly.q(1, 3)
    assert q_interval(1, 3, 3) == Poly.q(1, 3) * Poly.q(2, 3)
    with pytest.raises(OutOfRange):
        q_interval(2, 2, 3)


def test_monk_residual_small():
    assert monk_residual(1, make_permutation([1, 2])).is_zero()
    assert monk_residual(1, make_permutation([2, 1, 3])).is_zero()
    for n in (3, 4):
        for w in enumerate_symmetric_group(n):
            for k in range(1, n):
                assert monk_residual(k, w).is_zero(), (k, w.to_text())


def test_transition_small():
    assert quantum_double_schubert_transition(make_permutation([1, 2])) == Poly.one(2)
    assert quantum_double_schubert_transition(
        make_permutation([2, 1])
    ) == Poly.x_minus_y(1, 1, 2)
    w = make_permutation([4, 2, 1, 3])
    assert quantum_double_schubert_transition(w) == quantum_double_schubert_defining(w)


def test_east_pairs_past_the_moved_points_add_nothing():
    # two more fixed points give east pairs (a, c) past every moved point
    T = quantum_double_schubert_transition
    for n in range(2, 6):
        for pi in enumerate_symmetric_group(n):
            if not pi.is_identity():
                lifted = transition_rhs(embed(pi, n + 2), T)
                assert lifted == transition_rhs(pi, T).embed(n + 2), pi


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracles_agree(n):
    for w in enumerate_symmetric_group(n):
        assert quantum_double_schubert_transition(w) == quantum_double_schubert_defining(w)


def test_specialization_chain():
    for w in enumerate_symmetric_group(4):
        quantum = quantum_double_schubert_defining(w)
        classical = double_schubert_defining(w)
        assert quantum.specialize(zero_q=True) == classical
        assert quantum.specialize(zero_y=True, zero_q=True) == classical.specialize(
            zero_y=True
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_homogeneity(n):
    for w in enumerate_symmetric_group(n):
        p = quantum_double_schubert_defining(w)
        # deg x_i = deg y_j = 1, deg q_i = 2
        degs = {sum(m[: 2 * n]) + 2 * sum(m[2 * n :]) for m in p.terms()}
        if w.is_identity():
            assert degs == {0}
        else:
            assert degs == {length(w)}


def last_descent_word(w):
    images = list(w.images)
    rev = []
    while True:
        i = next(
            (i for i in range(len(images) - 1, 0, -1) if images[i - 1] > images[i]),
            None,
        )
        if i is None:
            break
        images[i - 1], images[i] = images[i], images[i - 1]
        rev.append(i)
    return tuple(reversed(rev))


def test_word_independence():
    n = 4
    w0 = make_permutation(range(n, 0, -1))
    top = quantum_double_schubert_defining(w0)
    for w in enumerate_symmetric_group(n):
        u = w
        # ww0: compose by right-multiplying w with w0 position reversal
        u = make_permutation(tuple(reversed(w.images)))
        first = reduced_word(u)
        last = last_descent_word(u)
        assert len(first) == len(last) == length(u)
        if first != last:
            assert divided_difference_chain(top, first) == divided_difference_chain(
                top, last
            )


def top_factor(k, j, n):
    """E_k^k(x_1 - y_j, ..., x_k - y_j) from its definition.

    E_k^k is the coefficient of lambda^k in det(1 + lambda*G_k), that is
    det G_k, for G_k tridiagonal with diagonal x_i - y_j, superdiagonal
    q_1..q_{k-1} and subdiagonal -1; here by the Leibniz expansion.
    """
    from itertools import permutations

    def entry(r, c):
        if r == c:
            return Poly.x_minus_y(r + 1, j, n)
        if c == r + 1:
            return Poly.q(r + 1, n)
        if c == r - 1:
            return Poly.const(-1, n)
        return None

    det = Poly.zero(n)
    for sigma in permutations(range(k)):
        factors = [entry(r, c) for r, c in enumerate(sigma)]
        if None in factors:
            continue
        inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1 :])
        term = Poly.const((-1) ** inversions, n)
        for f in factors:
            term = term * f
        det = det + term
    return det


def expanded_quantum_top(n):
    acc = Poly.one(n)
    for k in range(1, n):
        acc = acc * top_factor(k, n - k, n)
    return acc


def expanded_classical_top(n):
    acc = Poly.one(n)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            acc = acc * Poly.x_minus_y(i, j, n)
    return acc


def test_top_factor_small():
    n = 3
    x1, x2 = Poly.x_minus_y(1, 1, n), Poly.x_minus_y(2, 1, n)
    assert top_factor(1, 1, n) == x1
    assert top_factor(2, 1, n) == x1 * x2 + Poly.q(1, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_top_blocks_split_the_expanded_top(n):
    from qbpd.oracle import _quantum_top

    blocks = _quantum_top(n)
    assert [ys for ys, _ in blocks] == [frozenset({n - k}) for k in range(1, n)]
    for k, (ys, poly) in enumerate(blocks, 1):
        for m in poly.terms():
            assert {j for j, e in enumerate(m[n : 2 * n], 1) if e} <= ys
        assert poly == top_factor(k, n - k, n), k


def test_defining_equals_chain_on_expanded_top():
    import random

    cases = list(enumerate_symmetric_group(5)) + random.Random(7).sample(
        list(enumerate_symmetric_group(6)), 40
    )
    for route, expanded in (
        (quantum_double_schubert_defining, expanded_quantum_top),
        (double_schubert_defining, expanded_classical_top),
    ):
        tops = {n: expanded(n) for n in (5, 6)}
        # d_{a_1} d_{a_2} ... d_{a_k} top = d_{a_1}(d_{a_2} ... d_{a_k} top),
        # so each word reuses the chain of its suffix
        chains = {}

        def chain(n, word):
            if not word:
                return tops[n]
            if (n, word) not in chains:
                chains[n, word] = divided_difference_chain(
                    chain(n, word[1:]), word[:1]
                )
            return chains[n, word]

        for w in cases:
            n = w.n
            word = reduced_word(make_permutation(tuple(reversed(w.images))))
            expect = chain(n, word)
            if n == 5:
                assert expect == divided_difference_chain(tops[n], word)
            if (n * (n - 1) // 2 - length(w)) % 2:
                expect = -expect
            assert route(w) == expect, w.to_text()


def test_defining_of_a_trimmed_row_equals_the_full_chain():
    # a row with w(n) = n is computed in S_m, m its last moved point, and
    # embedded; the chain on the expanded top of the full S_n must agree
    import random

    fixed = {n: [w for w in enumerate_symmetric_group(n) if w(n) == n] for n in (5, 6)}
    cases = fixed[5] + random.Random(13).sample(fixed[6], 20)
    for route, expanded in (
        (quantum_double_schubert_defining, expanded_quantum_top),
        (double_schubert_defining, expanded_classical_top),
    ):
        tops = {n: expanded(n) for n in (5, 6)}
        chains = {}

        def chain(n, word):
            # d_{a_1}(d_{a_2} ... d_{a_k} top): each word reuses its suffix
            if not word:
                return tops[n]
            if (n, word) not in chains:
                chains[n, word] = divided_difference_chain(chain(n, word[1:]), word[:1])
            return chains[n, word]

        for w in cases:
            n = w.n
            word = reduced_word(make_permutation(tuple(reversed(w.images))))
            expect = chain(n, word)
            if n == 5:
                assert expect == divided_difference_chain(tops[n], word)
            if (n * (n - 1) // 2 - length(w)) % 2:
                expect = -expect
            assert route(w) == expect, w.to_text()


@pytest.mark.parametrize("row", ["4213", "2431", "3214", "53142", "25413", "21435"])
def test_embedded_copies_share_memo_entries(row):
    from qbpd.oracle import _chain, _transition_rec
    from qbpd.perm import embed, parse_permutation

    w = parse_permutation(row)
    for route, memo in (
        (quantum_double_schubert_transition, _transition_rec),
        (quantum_double_schubert_defining, _chain),
    ):
        small = route(w)
        misses = memo.cache_info().misses
        assert route(embed(w, w.n + 2)) == small.embed(w.n + 2)
        assert memo.cache_info().misses == misses, route.__name__


def test_three_routes_agree_on_an_s7_row():
    from qbpd.analysis import qbpd_polynomial

    w = make_permutation([5, 2, 6, 4, 3, 7, 1])
    p = quantum_double_schubert_defining(w)
    assert len(p) == 44922
    assert p == quantum_double_schubert_transition(w)
    assert p == qbpd_polynomial(w)
