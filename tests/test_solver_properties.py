"""Property tests for the top-down coefficient solver and its four callers."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import QQ, Poly, compose, right_factor_solve, solve_intertwiner
from rittkit.decompose import normalized_right_factor
from rittkit.poly import poly_nth_root

SOLVER = settings(derandomize=True, max_examples=40, deadline=None,
                  database=None)

small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys(draw, min_degree, max_degree, normalized=False):
    """Random Q-polynomials; normalized ones are monic with h(0) = 0."""
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(small_q, min_size=d, max_size=d))
    if normalized:
        return Poly.make(QQ, [0] + coeffs[1:] + [1])
    return Poly.make(QQ, coeffs + [draw(small_q.filter(bool))])


@SOLVER
@given(h=polys(0, 4), n=st.integers(1, 4))
def test_nth_root_recovers_base(h, n):
    assert poly_nth_root(h ** n, n, h.leading()) == h


@SOLVER
@given(g=polys(1, 3), h=polys(1, 3))
def test_right_factor_solve_recovers_inner(g, h):
    assert h in right_factor_solve(compose(g, h), g)


@SOLVER
@given(g=polys(1, 3), h0=polys(1, 3, normalized=True))
def test_normalized_right_factor_recovers_split(g, h0):
    if g.degree * h0.degree < 2:
        return
    assert normalized_right_factor(compose(g, h0), h0.degree) == (g, h0)


@SOLVER
@given(f=polys(2, 3))
def test_intertwiner_of_iterate_contains_f(f):
    ff = compose(f, f)
    assert f in solve_intertwiner(ff, ff, f.degree)
