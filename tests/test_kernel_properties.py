"""Property tests for the dense coefficient kernel and the code built on it."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import QQ, CycElem, Poly, compose, cyclotomic_field
from rittkit.field import cyclotomic_polynomial
from rittkit.poly import _rev_compose_trunc, _rev_trunc, poly_divmod

KERNEL = settings(derandomize=True, max_examples=40, deadline=None,
                  database=None)

small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)
orders = st.sampled_from([3, 5, 7, 8, 12])
t = sympy.Symbol("t")


def cyc_elems(K):
    return st.lists(small_q, min_size=K.degree, max_size=K.degree).map(
        lambda v: CycElem(K, v))


@st.composite
def polys(draw, field, min_degree, max_degree):
    """Random polynomials of degree in [min_degree, max_degree] over field."""
    scalars = small_q if field == QQ else cyc_elems(field)
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(scalars, min_size=d, max_size=d))
    lead = draw(scalars.filter(bool))
    return Poly.make(field, coeffs + [lead])


def test_cyclotomic_polynomial_matches_sympy():
    for m in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, t), t).all_coeffs()
        assert list(cyclotomic_polynomial(m)) == expected[::-1]


@KERNEL
@given(data=st.data(), m=orders)
def test_cyclotomic_inverse_and_associativity(data, m):
    K = cyclotomic_field(m)
    a, b, c = (data.draw(cyc_elems(K)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    if a:
        assert a * a.inverse() == K.one()


@KERNEL
@given(data=st.data(), m=orders)
def test_from_vector_reduces_mod_phi(data, m):
    K = cyclotomic_field(m)
    vec = data.draw(st.lists(small_q, min_size=2 * K.degree + 1,
                             max_size=3 * K.degree + 3))
    phi = sympy.Poly(sympy.cyclotomic_poly(m, t), t, domain="QQ")
    rem = sympy.Poly(vec[::-1], t, domain="QQ").rem(phi).all_coeffs()[::-1]
    rem += [0] * (K.degree - len(rem))
    assert CycElem.from_vector(K, vec) == CycElem(K, rem)


@KERNEL
@given(data=st.data(), field=st.sampled_from([QQ, cyclotomic_field(5)]))
def test_poly_divmod_identity(data, field):
    a = data.draw(polys(field, 0, 7))
    b = data.draw(polys(field, 0, 4))
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@KERNEL
@given(A=polys(QQ, 1, 5), B=polys(QQ, 1, 4), m=st.integers(0, 12))
def test_rev_compose_trunc_is_top_of_compose(A, B, m):
    assert _rev_compose_trunc(A, B, m) == _rev_trunc(compose(A, B), m)
