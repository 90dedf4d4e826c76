from fractions import Fraction

import pytest
import sympy
from conftest import rng_for
from sympy.polys.subresultants_qq_zz import sylvester

from rittkit import (QQ, BivarCurve, BivarPoly, Poly, bivar_gcd,
                     bivar_squarefree, lagrange_interpolate, parse_bivar,
                     resultant_univar, resultant_y)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def test_resultant_univar_examples():
    # Res(x - 2, x^2 - 3) = 2^2 - 3 = 1
    assert resultant_univar(P(-2, 1), P(-3, 0, 1)) == 1
    # shared factor forces zero
    a = P(-1, 1) * P(1, 1)
    b = P(-1, 1) * P(2, 1)
    assert resultant_univar(a, b) == 0


def test_resultant_univar_vs_sympy():
    rng = rng_for("resultant-oracle")
    x = sympy.Symbol("x")
    for _ in range(40):
        da, db = rng.randint(1, 5), rng.randint(1, 5)
        ca = [Fraction(rng.randint(-4, 4)) for _ in range(da)] + [Fraction(rng.randint(1, 4))]
        cb = [Fraction(rng.randint(-4, 4)) for _ in range(db)] + [Fraction(rng.randint(1, 4))]
        a, b = P(*ca), P(*cb)
        sa = sum(int(c) * x ** i for i, c in enumerate(ca))
        sb = sum(int(c) * x ** i for i, c in enumerate(cb))
        # sympy.resultant drops the sign in some orderings, so use the
        # Sylvester determinant as the oracle
        M = sylvester(sympy.Poly(sa, x), sympy.Poly(sb, x), x)
        assert resultant_univar(a, b) == Fraction(int(M.det()))


def test_bivar_resultant_elimination():
    # Res_y(y - x^2, y - 4) = 4 - x^2
    G = parse_bivar("y - x^2")
    H = parse_bivar("y - 4")
    r = resultant_y(G, H)
    assert r.monic() == P(-4, 0, 1).monic()


def test_bivar_resultant_vs_sympy():
    rng = rng_for("bivar-res")
    x, y = sympy.symbols("x y")
    for _ in range(12):
        def rand():
            rows = []
            for _ in range(rng.randint(1, 3)):
                rows.append([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            if all(all(c == 0 for c in r) for r in rows):
                rows[-1][-1] = 1
            while rows and all(c == 0 for c in rows[-1]):
                rows.pop()
            return rows
        ra, rb = rand(), rand()
        A = BivarPoly.make(QQ, [P(*r) for r in ra])
        B = BivarPoly.make(QQ, [P(*r) for r in rb])
        if A.deg_y == 0 and B.deg_y == 0:
            continue
        sa = sum(c * x ** i * y ** j for j, r in enumerate(ra) for i, c in enumerate(r))
        sb = sum(c * x ** i * y ** j for j, r in enumerate(rb) for i, c in enumerate(r))
        expected = sympy.Poly(sympy.resultant(sa, sb, y), x).all_coeffs()[::-1]
        got = resultant_y(A, B)
        want = P(*[Fraction(int(c)) for c in expected]) if any(expected) else Poly(QQ, ())
        assert got == want


def test_lagrange_interpolate():
    pts = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)),
           (Fraction(2), Fraction(5))]
    f = lagrange_interpolate(QQ, pts)
    assert f == P(1, 0, 1)
    for t, v in pts:
        assert f.evaluate(t) == v


def test_bivar_gcd_and_squarefree():
    a = parse_bivar("y - x")
    b = parse_bivar("y + x")
    prod = a * a * b
    g = bivar_gcd(prod, a * b)
    # gcd is a*b up to a scalar
    assert BivarCurve.make(g) == BivarCurve.make(a * b)
    sf = bivar_squarefree(prod)
    assert BivarCurve.make(sf) == BivarCurve.make(a * b)


@pytest.mark.parametrize("poly, distinct", [
    ("(y - 1)^2*(x + 2)^3*(x - y)^2", ["y - 1", "x + 2", "x - y"]),
    ("(y - 1)^3*(y + 2)^2*(2*y + 1)", ["y - 1", "y + 2", "2*y + 1"]),
])
def test_bivar_squarefree_line_content(poly, distinct):
    want = parse_bivar(distinct[0])
    for d in distinct[1:]:
        want = want * parse_bivar(d)
    sf = bivar_squarefree(parse_bivar(poly))
    assert BivarCurve.make(sf) == BivarCurve.make(want)


def test_curve_canonical_form():
    c1 = BivarCurve.make(parse_bivar("2*y - 2*x"))
    c2 = BivarCurve.make(parse_bivar("y - x"))
    assert c1 == c2
    c3 = BivarCurve.make(parse_bivar("x - 3"))
    assert c3.x_constant() and not c3.y_constant()
    assert c1.contains(Fraction(5), Fraction(5))
    assert not c1.contains(Fraction(5), Fraction(4))


def test_bivar_eval_and_str_roundtrip():
    G = parse_bivar("x^2*y^3 - 2*x + y - 1/2")
    assert parse_bivar(str(G)) == G
    e = G.eval_x(Fraction(2))
    assert e == Poly.make(QQ, [Fraction(-9, 2), 1, 0, 4])
