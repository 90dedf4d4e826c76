import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from conftest import rng_for
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import QQ, Poly, cyclotomic_field, in_field_roots
from rittkit.cli import run_command
from rittkit.field import roots_of_unity
from rittkit.errors import ResourceCapError
from rittkit.roots import PRIME_TEST_BOUND, is_prime, rational_roots


def test_rational_roots_examples():
    # 2x^2 - x - 1 = (2x + 1)(x - 1)
    assert sorted(rational_roots([-1, -1, 2])) == [Fraction(-1, 2), 1]
    assert rational_roots([1, 0, 1]) == []
    assert sorted(rational_roots([0, 0, 1])) == [0]


def test_rational_roots_vs_sympy():
    rng = rng_for("roots-oracle")
    x = sympy.Symbol("x")
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(deg + 1)]
        if not coeffs[-1]:
            coeffs[-1] = Fraction(1)
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(coeffs))
        expected = sorted(Fraction(int(sympy.numer(r)), int(sympy.denom(r)))
                          for r in sympy.roots(sympy.Poly(expr, x), x)
                          if r.is_rational)
        assert sorted(set(rational_roots(coeffs))) == sorted(set(expected))


def test_in_field_roots_rational():
    f = Poly.make(QQ, [Fraction(-9, 4), 0, 1])
    assert sorted(in_field_roots(f)) == [Fraction(-3, 2), Fraction(3, 2)]
    assert in_field_roots(Poly.make(QQ, [2, 0, 1])) == []


def test_in_field_roots_cyclotomic():
    K = cyclotomic_field(5)
    z = K.zeta()
    # x^5 - 1 splits completely over Q(zeta_5)
    f = Poly.make(K, [-1, 0, 0, 0, 0, 1])
    roots = in_field_roots(f)
    assert len(roots) == 5
    for r in roots:
        assert f.evaluate(r) == K.zero()
    # x^2 - z has no (rational) * (root of unity) solution here
    g = Poly.make(K, [-z, 0, 1])
    for r in in_field_roots(g):
        assert g.evaluate(r) == K.zero()


def test_in_field_roots_scaled_unity():
    K = cyclotomic_field(4)
    # x^4 - 16: roots 2, -2, 2i, -2i all live in Q(zeta_4)
    f = Poly.make(K, [-16, 0, 0, 0, 1])
    roots = in_field_roots(f)
    assert len(roots) == 4
    for r in roots:
        assert r ** 4 == K.coerce(16)


def test_in_field_roots_low_degree_unity_scaled():
    # (x - 1)(x - z): the quadratic formula alone needs sqrt of
    # (1 - z)^2, which is not a rational times a root of unity
    K = cyclotomic_field(3)
    z = K.zeta()
    f = Poly.make(K, [-1, 1]) * Poly.make(K, [-z, 1])
    assert set(in_field_roots(f)) == {K.one(), z}


def test_inou_degenerate_cyclotomic_fixed_point():
    # 1 and z are fixed points of x^2 - z*x + z over Q(zeta 3)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(["inou", "--field", "Q(zeta 3)",
                            "--f", "x^2 - z*x + z", "--p", "x",
                            "--eta", "x^2 - z*x + z"])
    assert code == 0
    assert "verified: true" in buf.getvalue()


small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def planted_roots(draw):
    """(F, roots): F has the planted roots q*w and a cofactor of degree <= 2."""
    K = cyclotomic_field(draw(st.sampled_from([3, 4, 5, 7, 8])))
    units = roots_of_unity(K)
    roots = [draw(small_q.filter(bool)) * draw(st.sampled_from(units))
             for _ in range(draw(st.integers(1, 3)))]
    F = Poly.make(K, [draw(small_q) * draw(st.sampled_from(units))
                      + draw(small_q) for _ in range(draw(st.integers(1, 3)))])
    if not F:
        F = Poly.constant(K, 1)
    for r in roots:
        F = F * Poly.make(K, [-r, 1])
    return F, roots


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(planted_roots())
def test_in_field_roots_finds_planted_unity_scaled(case):
    F, planted = case
    found = in_field_roots(F)
    assert all(r in found for r in planted)
    assert all(not F.evaluate(r) for r in found)


def test_is_prime_matches_trial_division():
    for n in range(-3, 10 ** 5):
        expected = n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))
        assert is_prime(n) == expected, n


def test_is_prime_beyond_the_first_four_bases():
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    # the largest prime below the bound
    assert is_prime(10 ** 18 + 3) and is_prime(PRIME_TEST_BOUND - 20)
    with pytest.raises(ResourceCapError, match="PRIME_TEST_BOUND"):
        is_prime(PRIME_TEST_BOUND)
