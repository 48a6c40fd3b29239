"""Algebraic computation of (quantum) (double) Schubert polynomials.

Two independent routes are provided for the quantum double family, each
with one memo for the life of the process, keyed by one-line notation
trimmed of trailing fixed points so that embedded copies share entries:

* the defining formula: the top polynomial for the longest permutation is
  a product of quantum elementary polynomials E_k^k, each the determinant
  of a tridiagonal matrix G_k computed by its three-term continuant, and
  every other polynomial is a signed chain of divided differences in the
  y variables.  The top is never expanded.  Its factor
  E_k^k(x_1 - y_{n-k}, ..., x_k - y_{n-k}) holds y_{n-k} alone, so the
  chain keeps blocks with disjoint y indices, and by the Leibniz rule
  d_j(f g) = d_j(f) g for g free of y_j and y_{j+1}, each d_j multiplies
  and divides only the blocks holding one of them; the blocks are
  multiplied once, at the end.  The chain runs in S_m, m the last point
  w moves, and its blocks are embedded into the ambient size of w (the
  family is stable), as the transition route does;
* the transition recursion, which rewrites the polynomial of w in terms of
  polynomials of permutations that are smaller in the termination order
  (largest moved point, then position of its preimage), whose
  corrections are quantum Monk terms (``_monk_terms``).

The classical double Schubert polynomials are the quantum ones at q = 0.
A Monk's-rule residual checker evaluates left minus right hand side of the
quantum double Monk rule, whose right side reads the same Monk terms, with
every Schubert polynomial produced by the defining route.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

from .errors import OutOfRange
from .perm import (
    Permutation,
    embed,
    is_bruhat_cover,
    is_quantum_lower,
    length,
    make_permutation,
    right_multiply_transposition,
    transition_setup,
)
from .polyring import Poly

__all__ = [
    "quantum_double_schubert_defining",
    "q_interval",
    "monk_residual",
    "quantum_double_schubert_transition",
    "transition_rhs",
]


def _quantum_top(n: int) -> tuple[tuple[frozenset, Poly], ...]:
    """The factors E_k^k(x_1 - y_{n-k}, ..., x_k - y_{n-k}), k = 1..n-1.

    E_k^k is det G_k, G_k tridiagonal with diagonal z_i = x_i - y_{n-k},
    superdiagonal q_1..q_{k-1} and subdiagonal -1, so its leading minors
    satisfy the continuant D_j = z_j D_{j-1} + q_{j-1} D_{j-2}.  Factor k
    holds y_{n-k} alone, so each is returned as a block ``({n - k}, poly)``.
    """
    blocks = []
    for k in range(1, n):
        z = [Poly.x_minus_y(i, n - k, n) for i in range(1, k + 1)]
        prev, cur = Poly.one(n), z[0]  # D_0, D_1
        for j in range(2, k + 1):
            prev, cur = cur, z[j - 1] * cur + Poly.q(j - 1, n) * prev
        blocks.append((frozenset({n - k}), cur))
    return tuple(blocks)


# The chain runs down the left weak order, keyed by one-line notation: if
# value j appears before value j+1 in w, then R(w) = d_j(R(s_j w)); R(w0)
# is the top polynomial.  Each entry is a tuple of blocks (y indices,
# factor) whose product is R(w), the y indices of the blocks being
# disjoint; blocks are shared between entries.
@lru_cache(maxsize=None)
def _chain(images: tuple[int, ...]) -> tuple:
    n = len(images)
    if images == tuple(range(n, 0, -1)):
        return _quantum_top(n)
    j = next(v for v in range(1, n) if images.index(v) < images.index(v + 1))
    lifted = tuple(v + 1 if v == j else v - 1 if v == j + 1 else v for v in images)
    # d_j(f g) = d_j(f) g when g has neither y_j nor y_{j+1}, so d_j
    # acts on the product of the blocks that hold one of them.
    pair = {j, j + 1}
    touched, kept = [], []
    for block in _chain(lifted):
        (touched if block[0] & pair else kept).append(block)
    ys = frozenset().union(*(b[0] for b in touched))
    merged = _product((p for _, p in touched), n).divided_difference_y(j)
    return (*kept, (ys, merged))


def _product(polys, n: int) -> Poly:
    """The product of ``polys``, smallest first."""
    polys = sorted(polys, key=len)
    return reduce(mul, polys) if polys else Poly.one(n)


def quantum_double_schubert_defining(w: Permutation) -> Poly:
    """Quantum double Schubert polynomial of w via the defining formula."""
    images = w.trimmed_images()
    m = len(images)
    # the blocks are smaller than their product, so they are embedded first
    poly = _product((p.embed(w.n) for _, p in _chain(images)), w.n)
    return poly if (m * (m - 1) // 2 - length(w)) % 2 == 0 else -poly


def q_interval(c: int, d: int, n: int) -> Poly:
    """The monomial q_c q_{c+1} ... q_{d-1}."""
    if not 1 <= c < d <= n:
        raise OutOfRange(f"need 1 <= c < d <= {n}, got c={c}, d={d}")
    return _product((Poly.q(i, n) for i in range(c, d)), n)


def _monk_terms(w: Permutation, pairs, T):
    """Yield the quantum Monk terms of w over ``pairs`` of positions a < b.

    T(w t_ab) where w t_ab covers w in the Bruhat order, and
    q_a ... q_{b-1} T(w t_ab) where it is a full quantum lowering of w;
    ``T`` gives the polynomial of a permutation of the size of w.  Each
    caller adds the terms straight into its own sum; summing them apart
    first would merge every term twice.
    """
    for a, b in pairs:
        if is_bruhat_cover(w, a, b):
            yield T(right_multiply_transposition(w, a, b))
        elif is_quantum_lower(w, a, b):
            q = q_interval(a, b, w.n)
            yield q * T(right_multiply_transposition(w, a, b))


def monk_residual(k: int, w: Permutation) -> Poly:
    """LHS minus RHS of the quantum double Monk rule for S^q_{s_k} * S^q_w.

    Both sides are evaluated with the defining-formula polynomials in the
    ambient size n+1 (length-raising transpositions t_{a,n+1} can move the
    fixed point n+1, and the family is stable under such embedding).
    """
    n = w.n
    if not 1 <= k <= n - 1:
        raise OutOfRange(f"need 1 <= k <= {n - 1}, got {k}")
    N = n + 1
    wE = embed(w, N)
    sk = right_multiply_transposition(make_permutation(range(1, N + 1)), k, k + 1)
    S = quantum_double_schubert_defining
    swE = S(wE)
    pairs = [(a, b) for a in range(1, k + 1) for b in range(k + 1, N + 1)]
    extra = Poly.zero(N)
    for i in range(1, k + 1):
        extra = extra + Poly.y(wE(i), N) - Poly.y(i, N)
    return S(sk) * swE - sum(_monk_terms(wE, pairs, S), extra * swE)


def quantum_double_schubert_transition(w: Permutation) -> Poly:
    """Quantum double Schubert polynomial of w via the transition recursion.

    Results are memoized by one-line notation trimmed of trailing fixed
    points, so embedded copies share cache entries; the returned value is
    embedded into the ambient size of w.
    """
    return _transition_rec(w.trimmed_images()).embed(w.n)


@lru_cache(maxsize=None)
def _transition_rec(images: tuple[int, ...]) -> Poly:
    m = len(images)
    pi = make_permutation(images)
    if pi.is_identity():
        return Poly.one(m)
    return transition_rhs(pi, lambda p: _transition_rec(p.trimmed_images()).embed(m))


def transition_rhs(pi: Permutation, T) -> Poly:
    """Right-hand side of the transition equation of a non-identity pi.

    With (n, a, b, m, sigma) from ``transition_setup`` (pi = sigma t_ab),
    T(pi) = (x_a - y_m) T(sigma) + sum_{c<a} M(c, a) - sum_{a<c<=n, c!=b} M(a, c),
    M being sigma's quantum Monk terms (``_monk_terms``), quantum lowerings
    only east of a.  No c > n counts: sigma fixes c, and a < b < c with
    m < sigma(b) = n < c.  ``T`` gives the polynomial of a permutation of
    the size of pi, in whose ring x_a - y_m is taken.
    """
    n, a, b, m, sigma = transition_setup(pi)
    west = [(c, a) for c in range(1, a)]
    east = [(a, c) for c in range(a + 1, n + 1) if c != b]
    rhs = sum(_monk_terms(sigma, west, T), Poly.x_minus_y(a, m, pi.n) * T(sigma))
    return sum((-term for term in _monk_terms(sigma, east, T)), rhs)
