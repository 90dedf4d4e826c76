from fractions import Fraction

import pytest

from rittkit import QQ, CycElem, cyclotomic_field, nth_roots, roots_of_unity
from rittkit.field import (cyclotomic_polynomial, rational_nth_roots,
                           scalar_str)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # degree is Euler phi
    assert len(cyclotomic_polynomial(12)) - 1 == 4


def test_zeta_power_order():
    for m in (3, 4, 5, 7, 8, 12):
        K = cyclotomic_field(m)
        z = K.zeta()
        assert z ** m == K.one()
        for k in range(1, m):
            assert z ** k != K.one()


def test_cyclotomic_arithmetic_vs_reduction():
    K = cyclotomic_field(7)
    z = K.zeta()
    # 1 + z + ... + z^6 = 0
    total = K.zero()
    for k in range(7):
        total = total + z ** k
    assert total == K.zero()
    # product of all nontrivial powers is the norm of z up to sign
    prod = K.one()
    for k in range(1, 7):
        prod = prod * z ** k
    assert prod == K.one()


def test_inverse_and_division():
    K = cyclotomic_field(5)
    z = K.zeta()
    a = 2 * z ** 3 - z + K.coerce(Fraction(1, 2))
    inv = a.inverse()
    assert a * inv == K.one()
    assert (a / a) == K.one()
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()


def test_coerce_rationals():
    K = cyclotomic_field(3)
    assert K.coerce(2) + K.coerce(3) == K.coerce(5)
    v = K.coerce(Fraction(1, 3))
    assert v.as_rational() == Fraction(1, 3)
    z = K.zeta()
    assert z.as_rational() is None


def test_roots_of_unity_complete():
    K = cyclotomic_field(12)
    mus = roots_of_unity(K)
    assert len(mus) == 12
    assert len(set(mus)) == 12
    for mu in mus:
        assert mu ** 12 == K.one()


def test_rational_nth_roots():
    assert sorted(rational_nth_roots(Fraction(4), 2)) == [-2, 2]
    assert rational_nth_roots(Fraction(8, 27), 3) == [Fraction(2, 3)]
    assert rational_nth_roots(Fraction(2), 2) == []
    assert sorted(rational_nth_roots(Fraction(-8), 3)) == [-2]
    assert rational_nth_roots(Fraction(-4), 2) == []


def test_rational_nth_roots_beyond_float_range():
    assert rational_nth_roots(Fraction(2 ** 1100), 2) == [2 ** 550, -2 ** 550]
    assert rational_nth_roots(Fraction(3 ** 700, 2 ** 1400), 7) == [
        Fraction(3 ** 100, 2 ** 200)]
    assert rational_nth_roots(Fraction(2 ** 1100 + 1), 2) == []


def test_nth_roots_over_cyclotomic():
    K = cyclotomic_field(8)
    roots = nth_roots(K.coerce(16), 4, K)
    assert len(roots) == 4
    for r in roots:
        assert r ** 4 == K.coerce(16)
    # i = zeta_8^2 is a square root of -1
    roots = nth_roots(K.coerce(-1), 2, K)
    assert len(roots) == 2


def test_scalar_str_shapes():
    assert scalar_str(Fraction(-3, 2)) == "-3/2"
    assert scalar_str(Fraction(4)) == "4"
    K = cyclotomic_field(5)
    z = K.zeta()
    assert scalar_str(z) == "z"
    assert "z^2" in scalar_str(z ** 2 + 1)


def test_from_vector_reduces():
    K = cyclotomic_field(4)
    # z^2 = -1 in Q(zeta_4), vectors longer than phi(4) must reduce
    v = CycElem.from_vector(K, [0, 0, 1])
    assert v == K.coerce(-1)


def test_nth_roots_first_power_is_identity():
    K = cyclotomic_field(5)
    c = K.coerce(1) + K.zeta()
    assert nth_roots(c, 1, K) == [c]
    assert nth_roots(Fraction(3, 2), 1, QQ) == [Fraction(3, 2)]


def test_cycelem_str_is_scalar_str():
    K = cyclotomic_field(3)
    assert str(K.coerce(2)) == "2"
    assert str(K.zeta() + 1) == scalar_str(K.zeta() + 1) == "1 + z"
