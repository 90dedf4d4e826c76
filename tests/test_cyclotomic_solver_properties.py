"""Property tests for the series root and the decomposition solvers over
Q(zeta 3) and Q(zeta 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import Poly, compose, cyclotomic_field
from rittkit.decompose import (left_factor_solve, normalized_right_factor,
                               right_factor_solve)
from rittkit.poly import series_root

SOLVER = settings(derandomize=True, max_examples=25, deadline=None,
                  database=None)

FIELDS = [cyclotomic_field(3), cyclotomic_field(5)]

small_q = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def scalars(draw, field, nonzero=False):
    """a_0 + a_1*zeta + ... over the power basis, small rational a_i."""
    z = field.zeta()
    v = field.zero()
    for k in range(field.degree):
        v = v + draw(small_q) * z ** k
    if nonzero and not v:
        v = field.one()
    return v


@st.composite
def unit_scaled(draw, field):
    """q*zeta^k with q != 0 rational: the leads nth_roots always finds."""
    q = draw(small_q.filter(bool))
    return field.zeta() ** draw(st.integers(0, field.order - 1)) * q


@st.composite
def polys(draw, field, min_degree, max_degree, normalized=False):
    """Random polynomials over field; normalized ones are monic with
    h(0) = 0, the others have a rational-times-root-of-unity lead."""
    d = draw(st.integers(min_degree, max_degree))
    coeffs = [draw(scalars(field)) for _ in range(d)]
    if normalized:
        return Poly.make(field, [0] + coeffs[1:] + [1])
    return Poly.make(field, coeffs + [draw(unit_scaled(field))])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SOLVER
@given(data=st.data(), n=st.integers(1, 5), terms=st.integers(1, 7))
def test_series_root_power_agrees_to_terms(field, data, n, terms):
    top = [field.one()] + [data.draw(scalars(field))
                           for _ in range(terms - 1)]
    root = series_root(top, n, terms)
    assert len(root) == terms and root[0] == 1
    power = Poly.make(field, root) ** n
    assert [power.coeff(i) for i in range(terms)] == top


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SOLVER
@given(data=st.data())
def test_normalized_right_factor_recovers_split(field, data):
    g = data.draw(polys(field, 1, 3))
    h = data.draw(polys(field, 1, 3, normalized=True))
    if g.degree * h.degree < 2:
        return
    assert normalized_right_factor(compose(g, h), h.degree) == (g, h)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SOLVER
@given(data=st.data())
def test_right_factor_solve_recovers_inner(field, data):
    g = data.draw(polys(field, 1, 3))
    h = data.draw(polys(field, 1, 3))
    assert h in right_factor_solve(compose(g, h), g)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SOLVER
@given(data=st.data())
def test_left_factor_solve_recovers_outer(field, data):
    g = data.draw(polys(field, 1, 3))
    h = data.draw(polys(field, 1, 3))
    assert left_factor_solve(compose(g, h), h) == g


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SOLVER
@given(data=st.data())
def test_left_factor_solve_rejects_linear_perturbation(field, data):
    g = data.draw(polys(field, 1, 3))
    h = data.draw(polys(field, 2, 3))
    c = data.draw(scalars(field, nonzero=True))
    F = compose(g, h) + Poly.monomial(field, 1, c)
    assert left_factor_solve(F, h) is None
