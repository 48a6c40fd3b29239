import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qbpd import polyring
from qbpd.analysis import qbpd_polynomial
from qbpd.errors import AmbientMismatch, OutOfRange
from qbpd.oracle import (
    quantum_double_schubert_defining,
    quantum_double_schubert_transition,
)
from qbpd.perm import enumerate_symmetric_group
from qbpd.polyring import Poly, _narrow

from conftest import random_poly


def json_of(p):
    return json.loads("".join(p.pieces(as_json=True)))


def test_additive_inverse():
    n = 2
    f = Poly.x_minus_y(1, 1, n)
    assert (f + (-f)).is_zero()
    assert f - f == Poly.zero(n)


def test_difference_of_squares():
    n = 2
    f = (Poly.x(1, n) - Poly.y(1, n)) * (Poly.x(1, n) + Poly.y(1, n))
    assert f == Poly.x(1, n) * Poly.x(1, n) - Poly.y(1, n) * Poly.y(1, n)


def test_q_monomial_product():
    n = 3
    f = Poly.q(1, n) * Poly.q(2, n)
    assert f.terms() == {(0, 0, 0, 0, 0, 0, 1, 1): 1}


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Poly.x(1, 2) + Poly.x(1, 3)
    with pytest.raises(AmbientMismatch):
        Poly.x(1, 2) * Poly.x(1, 3)


def test_variable_ranges():
    with pytest.raises(OutOfRange):
        Poly.x(3, 2)
    with pytest.raises(OutOfRange):
        Poly.q(2, 2)


def test_specialize():
    n = 2
    assert Poly.x_minus_y(1, 1, n).specialize(zero_y=True) == Poly.x(1, n)
    f = Poly.q(1, n) * Poly.x_minus_y(1, 2, n)
    assert f.specialize(zero_q=True).is_zero()
    assert f.specialize() == f


def test_divided_difference_basics():
    n = 2
    one = Poly.one(n)
    assert Poly.y(1, n).divided_difference_y(1) == one
    assert Poly.y(2, n).divided_difference_y(1) == -one
    assert (Poly.y(1, n) * Poly.y(2, n)).divided_difference_y(1).is_zero()


def test_counts():
    n = 1
    f = Poly.x(1, n) * Poly.x(1, n) - Poly.y(1, n) * Poly.y(1, n)
    assert f.counts() == (2, 2)
    assert Poly.zero(n).counts() == (0, 0)
    assert (3 * Poly.x(1, n)).counts() == (1, 3)


def test_canonical_text():
    assert Poly.zero(2).canonical_text() == "0"
    assert Poly.x_minus_y(1, 1, 2).canonical_text() == "x1 - y1"
    n = 3
    f = Poly.q(1, n) * Poly.q(2, n) - Poly.q(1, n) * Poly.q(1, n)
    assert f.canonical_text() == "-q1^2 + q1*q2"
    assert (Poly.const(-2, 2) * Poly.x(2, 2)).canonical_text() == "-2*x2"
    assert Poly.const(7, 2).canonical_text() == "7"


def test_json_round_trip():
    n = 3
    f = 5 * Poly.x(1, n) * Poly.q(2, n) - Poly.y(3, n)
    data = json_of(f)
    assert data["n"] == 3
    assert all(isinstance(t["c"], str) for t in data["terms"])
    again = json.loads(json.dumps(data))["terms"]
    terms = {tuple(t["x"] + t["y"] + t["q"]): int(t["c"]) for t in again}
    assert terms == f.terms()
    # canonical order: keys descending on the concatenated exponent vector
    keys = [tuple(t["x"]) + tuple(t["y"]) + tuple(t["q"]) for t in data["terms"]]
    assert keys == sorted(keys, reverse=True)


def test_foreign_operands_raise_type_error():
    p = Poly.x(1, 2)
    for op in (
        lambda: p * 0.5,
        lambda: p + 0.5,
        lambda: 0.5 * p,
        lambda: 0.5 - p,
        lambda: p - 0.5,
        lambda: p + None,
    ):
        with pytest.raises(TypeError):
            op()


def test_embed():
    f = Poly.x_minus_y(1, 2, 2) * Poly.q(1, 2)
    g = f.embed(4)
    assert g.n == 4
    assert g == Poly.x_minus_y(1, 2, 4) * Poly.q(1, 4)
    with pytest.raises(OutOfRange):
        g.embed(2)


def test_divided_difference_random_properties():
    rng = random.Random(20250810)
    n = 4
    for _ in range(40):
        f = random_poly(rng, n)
        i = rng.randint(1, n - 1)
        # nilpotence, and the result is symmetric in y_i, y_{i+1}
        d = f.divided_difference_y(i)
        assert d.divided_difference_y(i).is_zero()
        assert ref_swap(d.terms(), n, i) == d.terms()
        # the division is exact
        product = ((Poly.y(i, n) - Poly.y(i + 1, n)) * d).terms()
        sf = ref_swap(f.terms(), n, i)
        assert product == ref_add(f.terms(), {k: -c for k, c in sf.items()})
        # braid relation
        j = rng.randint(1, n - 2)
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
        assert lhs == rhs
        # commutation at distance >= 2
        assert (
            f.divided_difference_y(1).divided_difference_y(3)
            == f.divided_difference_y(3).divided_difference_y(1)
        )


def test_divided_difference_never_inexact():
    rng = random.Random(7)
    for _ in range(60):
        f = random_poly(rng, 3, terms=8, maxexp=3)
        for i in (1, 2):
            f.divided_difference_y(i)


def test_ring_axioms_random():
    rng = random.Random(99)
    n = 3
    for _ in range(25):
        f, g, h = (random_poly(rng, n, terms=4) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f * g == g * f


# -- packed keys against a tuple-keyed reference --------------------------------

def ref_norm(f):
    return {k: c for k, c in f.items() if c}


def ref_add(f, g):
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, 0) + c
    return ref_norm(out)


def ref_mul(f, g):
    out = {}
    for ka, ca in f.items():
        for kb, cb in g.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return ref_norm(out)


def ref_swap(f, n, i):
    def swap(k):
        k = list(k)
        k[n + i - 1], k[n + i] = k[n + i], k[n + i - 1]
        return tuple(k)

    return {swap(k): c for k, c in f.items()}


def ref_divided_difference(f, n, i):
    # y_i^a y_{i+1}^b - y_i^b y_{i+1}^a
    #     = (y_i - y_{i+1}) * sum_{b <= j < a} y_i^j y_{i+1}^{a+b-1-j}
    out = {}
    for k, c in f.items():
        a, b = k[n + i - 1], k[n + i]
        lo, hi, s = (b, a, c) if a > b else (a, b, -c)
        for j in range(lo, hi):
            m = k[: n + i - 1] + (j, a + b - 1 - j) + k[n + i + 1 :]
            out[m] = out.get(m, 0) + s
    return ref_norm(out)


def ref_embed(f, n, N):
    pad = (0,) * (N - n)
    return {
        k[:n] + pad + k[n : 2 * n] + pad + k[2 * n :] + pad: c for k, c in f.items()
    }


def ref_text(f, n):
    blocks = (("x", n), ("y", n), ("q", n - 1))
    names = [f"{v}{i}" for v, m in blocks for i in range(1, m + 1)]
    text = ""
    for k in sorted(f, reverse=True):
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, k) if e)
        mag = abs(f[k])
        body = (f"{mag}*{body}" if mag != 1 else body) if body else str(mag)
        text += (" - " if f[k] < 0 else " + ") + body
    return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


def term_dicts(n):
    key = st.tuples(*[st.integers(0, 6)] * (3 * n - 1))
    return st.dictionaries(key, st.integers(-5, 5), max_size=8)


two_polys = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), term_dicts(n), term_dicts(n))
)
poly_and_index = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), term_dicts(n), st.integers(1, n - 1))
)


@settings(max_examples=80, deadline=None)
@given(two_polys)
def test_packed_ring_ops_match_reference(case):
    n, f, g = case
    f, g = ref_norm(f), ref_norm(g)
    pf, pg = Poly(n, f), Poly(n, g)
    assert (pf + pg).terms() == ref_add(f, g)
    assert (pf - pg).terms() == ref_add(f, {k: -c for k, c in g.items()})
    assert (pf * pg).terms() == ref_mul(f, g)
    for p, ref in ((pf, f), (pf * pg, ref_mul(f, g))):
        assert Poly(n, p.terms()) == p
        assert p.canonical_text() == ref_text(ref, n)
        data = json_of(p)
        keys = [tuple(t["x"] + t["y"] + t["q"]) for t in data["terms"]]
        assert keys == sorted(ref, reverse=True)
        assert keys == sorted(p.terms(), reverse=True)
        terms = {tuple(t["x"] + t["y"] + t["q"]): int(t["c"]) for t in data["terms"]}
        assert terms == p.terms()


packed_terms = st.dictionaries(
    st.integers(0, 15), st.integers(-3, 3).filter(bool), max_size=6
)


@settings(max_examples=200, deadline=None)
@given(packed_terms, packed_terms, packed_terms, st.sets(st.integers(0, 30)))
def test_mac_matches_reference(acc, poly, terms, cancel):
    # small keys make products collide and cancel among themselves; acc
    # holding minus the product at the keys in ``cancel`` cancels more
    product = {}
    for tk, tv in terms.items():
        for k, v in poly.items():
            product[k + tk] = product.get(k + tk, 0) + v * tv
    acc.update((t, -c) for t, c in product.items() if c and t in cancel)
    expected = ref_add(acc, product)
    out = polyring._mac(acc, poly, terms.items())
    assert out is acc and out == expected and all(out.values())


@settings(max_examples=80, deadline=None)
@given(poly_and_index, st.integers(0, 2))
def test_packed_y_operators_match_reference(case, extra):
    n, f, i = case
    f = ref_norm(f)
    p = Poly(n, f)
    d = ref_divided_difference(f, n, i)
    assert p.divided_difference_y(i).terms() == d
    # the quotient times y_i - y_{i+1} gives back f - s_i f
    yy = (Poly.y(i, n) - Poly.y(i + 1, n)).terms()
    assert ref_mul(yy, d) == ref_add(f, {k: -c for k, c in ref_swap(f, n, i).items()})
    N = n + extra
    assert p.embed(N).terms() == ref_embed(f, n, N)
    for zero_y in (False, True):
        for zero_q in (False, True):
            keep = {
                k: c
                for k, c in f.items()
                if not (zero_y and any(k[n : 2 * n]) or zero_q and any(k[2 * n :]))
            }
            assert p.specialize(zero_y=zero_y, zero_q=zero_q).terms() == keep


def test_coefficients_must_be_integers():
    for c in (0.5, 2.7, 0.0):
        with pytest.raises(TypeError):
            Poly.const(c, 2)
        with pytest.raises(TypeError):
            Poly(1, {(1, 0): c})


def test_exponent_range_boundaries():
    top = Poly(1, {(127, 0): 1})
    assert json_of(top)["terms"][0]["x"] == [127]
    for bad in ((128, 0), (0, -1)):
        with pytest.raises(OutOfRange):
            Poly(1, {bad: 1})
    with pytest.raises(OutOfRange):
        top * Poly.x(1, 1)
    half = Poly(2, {(0, 0, 64, 0, 0): 1})  # y_1^64
    with pytest.raises(OutOfRange):
        half * half
    assert (half * Poly(2, {(0, 0, 63, 0, 0): 1})).canonical_text() == "y1^127"


# -- the output path: re-pack from the weight sum's layout, and text --------------

# +-1 print without a factor; the large ones reach past one machine word
coefficients = st.integers(-3, 3) | st.integers(-(10**30), 10**30)
coefficients = coefficients.filter(bool)


def ref_pack_narrow(k, n):
    # fields just wide enough for exponents up to n, slot 0 the highest
    width = (n + 1).bit_length()
    key = 0
    for e in k:
        key = key << width | e
    return key


narrow_case = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.tuples(*[st.integers(0, n)] * (3 * n - 1)), coefficients, max_size=12
        ),
        st.integers(1, 3),
    )
)


@settings(max_examples=100, deadline=None)
@given(narrow_case)
@example((1, {(0, 0): -5}, 1))  # n = 1: no q block; only the constant term
@example((1, {(1, 1): -1, (0, 1): 1, (0, 0): 1}, 2))
@example((3, {(3,) * 8: -7, (3, 0, 0, 0, 0, 0, 0, 3): 1, (0,) * 8: -1}, 2))
def test_from_packed_and_text_match_reference(case):
    n, f, nparts = case
    parts = [{} for _ in range(nparts)]
    for i, (k, c) in enumerate(sorted(f.items())):
        parts[i % nparts][ref_pack_narrow(k, n)] = c
    p = Poly._from_packed(n, iter(parts))
    assert p.terms() == f
    assert p.canonical_text() == ref_text(f, n)


def test_narrow_fields_hold_every_exponent_up_to_n_12():
    # n is the largest exponent one diagram's weight carries; a field too
    # narrow for it would carry into its neighbour
    for n in range(1, 13):
        key = sum(n << s for s in _narrow(n).shifts)
        assert Poly._from_packed(n, [{key: 1}]).terms() == {(n,) * (3 * n - 1): 1}


wide_case = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.tuples(*[st.sampled_from((0, 1, 2, 126, 127))] * (3 * n - 1)),
            coefficients,
            max_size=12,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(wide_case)
@example((2, {(127,) * 5: -1, (0,) * 5: 12}))
def test_text_at_the_exponent_limit_matches_reference(case):
    n, f = case
    assert Poly(n, f).canonical_text() == ref_text(f, n)


def ref_json(p):
    n = p.n
    terms = [
        {"c": str(c), "x": list(t[:n]), "y": list(t[n : 2 * n]), "q": list(t[2 * n :])}
        for t, c in sorted(p.terms().items(), reverse=True)
    ]
    return json.dumps({"n": n, "terms": terms})


@pytest.mark.parametrize("size", [1, 2, 3])
def test_pieces_split_at_any_term(monkeypatch, size):
    monkeypatch.setattr(polyring, "_PIECE", size)
    polys = [Poly.zero(2), Poly.const(1, 2), Poly.const(-1, 3), Poly.const(-7, 1)]
    polys.append(3 * Poly.x(1, 2) * Poly.q(1, 2) - Poly.y(2, 2) - 1)
    routes = (
        qbpd_polynomial,
        quantum_double_schubert_defining,
        quantum_double_schubert_transition,
    )
    for n in range(1, 5):
        polys += [route(w) for w in enumerate_symmetric_group(n) for route in routes]
    for p in polys:
        pieces = list(p.pieces())
        assert "".join(pieces) == p.canonical_text() == ref_text(p.terms(), p.n)
        assert len(pieces) == max(1, -(-len(p) // size))
        assert "".join(p.pieces(as_json=True)) == ref_json(p)
