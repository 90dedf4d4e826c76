from fractions import Fraction

import pytest
from conftest import random_poly, rng_for

from rittkit import (QQ, LinearPoly, Poly, ResourceCapError, chebyshev,
                     compose, conjugate, cyclotomic_field, iterate, poly_gcd)
from rittkit.poly import exact_div, poly_nth_root, squarefree_part

X = Poly.x(QQ)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def test_compose_basic():
    f = P(1, 0, 1)          # x^2 + 1
    g = P(0, 2)             # 2x
    assert compose(f, g) == P(1, 0, 4)
    assert compose(g, f) == P(2, 0, 2)


def test_compose_associative_random():
    rng = rng_for("compose-assoc")
    for _ in range(100):
        a = random_poly(rng, rng.randint(1, 4))
        b = random_poly(rng, rng.randint(1, 4))
        c = random_poly(rng, rng.randint(1, 4))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_degree_cap():
    f = P(0, 0, 0, 0, 0, 1)
    with pytest.raises(ResourceCapError):
        compose(f, f, degree_cap=24)


def test_iterate():
    f = P(1, 0, 1)
    assert iterate(f, 0) == X
    assert iterate(f, 1) == f
    assert iterate(f, 2) == compose(f, f)
    assert iterate(f, 3).degree == 8


def test_chebyshev_values():
    assert chebyshev(1) == X
    assert chebyshev(2) == P(-2, 0, 1)
    assert chebyshev(3) == P(0, -3, 0, 1)
    assert chebyshev(6) == P(-2, 0, 9, 0, -6, 0, 1)


def test_chebyshev_semigroup():
    # T_m o T_n = T_{mn}
    for m in range(2, 9):
        for n in range(2, 9):
            assert compose(chebyshev(m), chebyshev(n)) == chebyshev(m * n)


def test_chebyshev_functional_identity():
    # T_d(t + 1/t) = t^d + t^(-d)
    for t in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-5, 3)):
        for d in range(1, 9):
            lhs = chebyshev(d).evaluate(t + 1 / t)
            assert lhs == t ** d + t ** (-d)


def test_conjugate():
    ell = LinearPoly.make(QQ, 2, 1)       # 2x + 1
    f = P(0, 0, 1)                        # x^2
    g = conjugate(ell, f)
    # ell o f o ell^{-1}
    inv = ell.inverse().to_poly()
    assert g == compose(ell.to_poly(), compose(f, inv))
    assert conjugate(ell.inverse(), g) == f


def test_linear_poly_ops():
    ell = LinearPoly.make(QQ, Fraction(3, 2), -1)
    inv = ell.inverse()
    assert ell.after(inv).is_identity()
    assert inv.after(ell).is_identity()
    with pytest.raises(Exception):
        LinearPoly.make(QQ, 0, 1)


def test_divmod_gcd():
    a = P(-1, 0, 1)       # x^2 - 1
    b = P(-1, 1)          # x - 1
    q, r = a.field, None
    from rittkit import poly_divmod
    q, r = poly_divmod(a, b)
    assert q == P(1, 1) and r.is_zero()
    g = poly_gcd(P(-1, 0, 1), P(1, 2, 1))
    assert g.monic() == P(1, 1)
    assert exact_div(a, b) == P(1, 1)


def test_nth_root_and_squarefree():
    f = P(1, 1)
    F = f * f * f
    assert poly_nth_root(F, 3, Fraction(1)) == f
    assert poly_nth_root(F, 2, Fraction(1)) is None
    sq = squarefree_part(F * P(-2, 1))
    assert sq.monic() == (f * P(-2, 1)).monic()


def test_str_shapes():
    assert str(P(0)) == "0"
    assert str(P(-1, 0, 1)) == "x^2 - 1"
    assert str(P(Fraction(1, 2), -1)) == "-x + 1/2"
    K = cyclotomic_field(5)
    z = Poly.make(K, [K.zeta(), K.one()])
    assert str(z) == "x + z"


def test_cyclotomic_compose():
    K = cyclotomic_field(3)
    z = K.zeta()
    f = Poly.make(K, [z, 0, 1])
    g = Poly.make(K, [0, z])
    assert compose(f, g) == Poly.make(K, [z, 0, z * z])


def test_chebyshev_functional_identity_high_degree():
    n = 1000
    T = chebyshev(n)
    for t in (Fraction(2), Fraction(1, 3)):
        assert T.evaluate(t + 1 / t) == t ** n + t ** -n
