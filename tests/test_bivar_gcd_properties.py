"""Properties of bivar_gcd and bivar_squarefree, the dense interpolation
in K[x][y]: against sympy over Q, against independent checks (exact
division and resultants) over Q(zeta 3) and Q(zeta 5), and the graph
image whose pushes are high powers."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rittkit
from rittkit import (QQ, BivarCurve, BivarPoly, Poly, bivar_gcd,
                     bivar_squarefree, cyclotomic_field, parse_bivar, poly_gcd,
                     resultant_y)
from rittkit.bivar import bivar_exact_div_y
from rittkit.poly import exact_div

GCD = settings(derandomize=True, max_examples=40, deadline=None,
               database=None)

X, Y = sympy.symbols("x y")
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def scalars(draw, field):
    z = field.zeta() if field != QQ else None
    v = field.zero()
    for k in range(field.degree):
        v = v + draw(small_q) * (z ** k if z is not None else 1)
    return v


@st.composite
def bivars(draw, field, max_dx, max_dy, min_dy=0):
    """A nonzero polynomial of bidegree at most (max_dx, max_dy)."""
    dx = draw(st.integers(0, max_dx))
    dy = draw(st.integers(min_dy, max_dy))
    B = BivarPoly.make(field, [Poly.make(field, [draw(scalars(field))
                                                 for _ in range(dx + 1)])
                               for _ in range(dy + 1)])
    if B.deg_y < min_dy or B.is_zero():
        B = B + BivarPoly.make(field, [Poly(field, ())] * min_dy
                               + [Poly.constant(field, 1)])
    return B


def x_line(field, coeffs):
    return BivarPoly.from_univar(Poly.make(field, coeffs), "x")


def y_line(field, coeffs):
    return BivarPoly.from_univar(Poly.make(field, coeffs), "y")


def vanishing_lead(field):
    """x(x - 1)(x - 2)*y + 1: its leading row is zero at x = 0, 1, 2, the
    first integer samples, so they must be rejected."""
    return BivarPoly.make(field, [Poly.constant(field, 1),
                                  Poly.make(field, [0, 2, -3, 1])])


@st.composite
def planted(draw, field):
    """(A, B, P): A = P*U, B = P*V with line content and vanishing leading
    rows planted in P and in U."""
    P = draw(bivars(field, 2, 2))
    U = draw(bivars(field, 2, 2, min_dy=1))
    V = draw(bivars(field, 2, 2))
    if draw(st.booleans()):
        P = P * x_line(field, [draw(small_q), 1])
    if draw(st.booleans()):
        P = P * y_line(field, [draw(small_q), 1])
    if draw(st.booleans()):
        U = U * vanishing_lead(field)
    if draw(st.booleans()):
        P = P * vanishing_lead(field)
    if draw(st.booleans()):
        U = U * P
    return P * U, P * V, P


def to_sympy(B: BivarPoly):
    return sum(sympy.Rational(c.numerator, c.denominator) * X ** i * Y ** j
               for j, r in enumerate(B.rows) for i, c in enumerate(r.coeffs))


def from_sympy(expr) -> BivarPoly:
    terms = sympy.Poly(expr, X, Y).terms()
    grid = [[0] * (1 + max(i for (i, _), _ in terms))
            for _ in range(1 + max(j for (_, j), _ in terms))]
    for (i, j), c in terms:
        grid[j][i] = Fraction(int(c.p), int(c.q))
    return BivarPoly.make(QQ, [Poly.make(QQ, r) for r in grid])


def lead_one(B: BivarPoly) -> BivarPoly:
    return B.scale(1 / B.rows[-1].leading())


@GCD
@given(data=planted(QQ))
def test_bivar_gcd_matches_sympy_over_q(data):
    A, B, _ = data
    want = lead_one(from_sympy(sympy.gcd(to_sympy(A), to_sympy(B))))
    assert bivar_gcd(A, B) == want


@GCD
@given(P=bivars(QQ, 2, 2, min_dy=1), Q=bivars(QQ, 2, 1),
       lines=st.tuples(small_q, small_q), lead=st.booleans())
def test_bivar_squarefree_matches_sympy_over_q(P, Q, lines, lead):
    G = P * P * Q * x_line(QQ, [lines[0], 1]) * x_line(QQ, [lines[0], 1])
    L = y_line(QQ, [lines[1], 1])
    G = G * L * L * L
    if lead:
        G = G * vanishing_lead(QQ) * vanishing_lead(QQ)
    want = from_sympy(sympy.Poly(to_sympy(G), X, Y).sqf_part().as_expr())
    assert BivarCurve.make(bivar_squarefree(G)) == BivarCurve.make(want)


def test_unlucky_samples_do_not_make_the_gcd():
    """(y - x)*y and y - x^2 are coprime, but at x = 0 and x = 1 they share
    the root y = x; the two samples interpolate to y - x, which divides
    the first input only."""
    G, H = parse_bivar("(y - x)*y"), parse_bivar("y - x^2")
    assert bivar_gcd(G, H) == parse_bivar("1")
    assert bivar_gcd(G * H, H * parse_bivar("y + 1")) == H


def divides(B: BivarPoly, A: BivarPoly) -> bool:
    try:
        bivar_exact_div_y(A, B)
    except rittkit.RittKitError:
        return False
    return True


def coprime(A: BivarPoly, B: BivarPoly) -> bool:
    """No common factor: coprime contents, and a nonzero resultant when
    both have positive y-degree."""
    if poly_gcd(A.content_y(), B.content_y()).degree > 0:
        return False
    return A.deg_y == 0 or B.deg_y == 0 or not resultant_y(A, B).is_zero()


CYCLOTOMIC = [cyclotomic_field(3), cyclotomic_field(5)]
GCD_CYC = settings(derandomize=True, max_examples=15, deadline=None,
                   database=None)


@pytest.mark.parametrize("field", CYCLOTOMIC, ids=str)
@GCD_CYC
@given(data=st.data())
def test_bivar_gcd_planted_over_cyclotomic(field, data):
    A, B, P = data.draw(planted(field))
    g = bivar_gcd(A, B)
    assert g.rows[-1].leading() == 1
    assert divides(g, A) and divides(g, B) and divides(P, g)
    assert coprime(bivar_exact_div_y(A, g), bivar_exact_div_y(B, g))


def squarefree(G: BivarPoly) -> bool:
    """A squarefree content and, for positive y-degree, a nonzero
    discriminant Res_y(prim, d/dy prim) of the primitive part."""
    c = G.content_y()
    if poly_gcd(c, c.derivative()).degree > 0:
        return False
    prim = BivarPoly.make(G.field, [exact_div(r, c) for r in G.rows])
    return (prim.deg_y == 0
            or not resultant_y(prim, prim.derivative_y()).is_zero())


@pytest.mark.parametrize("field", CYCLOTOMIC, ids=str)
@GCD_CYC
@given(data=st.data())
def test_bivar_squarefree_planted_over_cyclotomic(field, data):
    P = data.draw(bivars(field, 2, 2, min_dy=1))
    Q = data.draw(bivars(field, 1, 1))
    line = x_line(field, [data.draw(scalars(field)), 1])
    radical = P * Q * line
    assume(squarefree(radical))
    sf = bivar_squarefree(P * P * Q * line * line)
    assert BivarCurve.make(sf) == BivarCurve.make(radical)


SRC = str(Path(rittkit.__file__).resolve().parent.parent)


def test_graph_of_third_iterate_is_invariant_quickly():
    """x = f^3(y) for f = x^3 + x: the pushes are 27th powers of its
    image, which a y-remainder sequence took minutes over."""
    code = ("from rittkit import curve_image, graph_curve, iterate, parse_poly\n"
            "f = parse_poly('x^3 + x')\n"
            "C = graph_curve(iterate(f, 3), 'x')\n"
            "print(curve_image(C, f, f) == C)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=30,
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout == "True\n"
