"""The integer paths over Q of division, composition and the resultant,
against Fraction references written here and against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester
from test_kernel_properties import KERNEL, run_limited, schoolbook

from rittkit import QQ, Poly, compose, resultant_univar
from rittkit.field import KRONECKER_MIN_LEN, dense_divmod, dense_mul, int_mul

x = sympy.Symbol("x")

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(1, 2 ** 64)),
    st.builds(Fraction, st.integers(-9, 9),
              st.sampled_from([2 ** 64, 3 ** 40])))
leads = rationals.filter(bool)


def fraction_divmod(a, b):
    """Reference long division: one Fraction division per quotient term."""
    rem, db = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + db] / b[-1]
        for j in range(db + 1):
            rem[k + j] -= q[k] * b[j]
    return q, rem[:db]


def fraction_horner(f, g):
    """Reference f(g) by Horner on Fraction lists, trimmed."""
    acc = []
    for c in reversed(f):
        acc = schoolbook(acc, g) if acc and g else []
        acc = [acc[0] + c] + acc[1:] if acc else [c]
    while acc and not acc[-1]:
        acc.pop()
    return tuple(acc)


def sylvester_resultant(A, B):
    """Res(A, B) as sympy's Sylvester determinant (sympy.resultant drops
    the sign in some orderings)."""
    sa, sb = (sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                          for c in P.coeffs[::-1]], x) for P in (A, B))
    det = sylvester(sa, sb, x).det()
    return Fraction(int(det.p), int(det.q))


@KERNEL
@given(a=st.lists(rationals, max_size=3 * KRONECKER_MIN_LEN),
       b=st.lists(rationals, max_size=5), lead=leads)
def test_rational_divmod_matches_fraction_division(a, b, lead):
    # divisors of degree 0 to 5: both sides of the linear-divisor rule
    b = b + [lead]
    q, r = dense_divmod(a, b)
    assert (q, r) == fraction_divmod(a, b)
    assert all(type(c) is Fraction for c in q + r)


@pytest.mark.parametrize("lead", [Fraction(1), Fraction(-1), Fraction(-3, 7),
                                  Fraction(2 ** 64 + 1, 3),
                                  Fraction(5, 2 ** 64)])
@pytest.mark.parametrize("db", [0, 1, 2, 3, 6])
def test_rational_divmod_leads_and_lengths(lead, db):
    b = [Fraction((-1) ** j * (j + 2), 2 ** (8 * j) + 1) for j in range(db)]
    b.append(lead)
    for n in (0, db, db + 1, KRONECKER_MIN_LEN, 3 * KRONECKER_MIN_LEN + 1):
        a = [Fraction(3 ** i - 2 ** (2 * i), 2 ** 64 - i) for i in range(n)]
        assert dense_divmod(a, b) == fraction_divmod(a, b)


@KERNEL
@given(f=st.lists(rationals, max_size=6),
       g=st.lists(rationals, max_size=2 * KRONECKER_MIN_LEN))
def test_rational_compose_matches_fraction_horner(f, g):
    F, G = Poly.make(QQ, f), Poly.make(QQ, g)
    assert compose(F, G).coeffs == fraction_horner(F.coeffs, G.coeffs)


def test_rational_compose_constants_and_zero():
    zero, c = Poly(QQ, ()), Poly.constant(QQ, Fraction(-5, 2 ** 64))
    g = Poly.make(QQ, [Fraction(1, 3), Fraction(-2, 7), Fraction(4, 5)])
    for F, G in ((zero, g), (c, g), (g, zero), (g, c), (c, zero), (g, g)):
        assert compose(F, G).coeffs == fraction_horner(F.coeffs, G.coeffs)


polys = st.lists(rationals, min_size=1, max_size=6).flatmap(
    lambda cs: leads.map(lambda c: Poly.make(QQ, cs + [c])))


@KERNEL
@given(A=polys, B=polys, common=st.one_of(st.none(), polys))
def test_rational_resultant_matches_sympy(A, B, common):
    if common is not None and common.degree >= 1:
        assert resultant_univar(A * common, B * common) == 0
    res = resultant_univar(A, B)
    assert type(res) is Fraction
    assert res == sylvester_resultant(A, B)


@pytest.mark.parametrize("da,db", [(0, 0), (0, 3), (4, 0), (1, 1), (1, 3),
                                   (3, 1), (3, 3), (3, 5), (5, 3), (2, 4),
                                   (7, 2)])
def test_rational_resultant_degrees_and_signs(da, db):
    # odd x odd degrees flip the sign with the order of the operands
    A = Poly.make(QQ, [Fraction(i - 2, 2 ** 64 - i) for i in range(da)]
                  + [Fraction(-3, 2 ** 64)])
    B = Poly.make(QQ, [Fraction(2 * i + 1, 7) for i in range(db)]
                  + [Fraction(-5, 3)])
    assert resultant_univar(A, B) == sylvester_resultant(A, B)
    assert resultant_univar(B, A) == (-1) ** (da * db) * resultant_univar(A, B)


big_ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200))


@KERNEL
@given(a=st.lists(big_ints, max_size=3 * KRONECKER_MIN_LEN),
       b=st.lists(big_ints, max_size=3 * KRONECKER_MIN_LEN))
def test_int_mul_matches_schoolbook(a, b):
    expect = [0] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            expect[i + j] += u * v
    assert int_mul(a, b) == expect
    fa, fb = [Fraction(u) for u in a], [Fraction(v) for v in b]
    assert dense_mul(fa, fb, Fraction(0)) == schoolbook(fa, fb)


def test_division_of_degree_4000_ends_quickly():
    # the Fraction loop took about 7 s in all; the integer path about 3 s
    script = (
        "import random\n"
        "from fractions import Fraction as F\n"
        "from rittkit import QQ, Poly, poly_divmod\n"
        "rng = random.Random(4000)\n"
        "a = Poly.make(QQ, [F(rng.randint(-99, 99), rng.randint(1, 99))\n"
        "                   for _ in range(4001)])\n"
        "for b in ([F(-1, 3), 1], [F(2, 7), F(1, 5), F(3, 11)],\n"
        "          [F(rng.randint(-9, 9), rng.randint(1, 9))\n"
        "           for _ in range(6)] + [1]):\n"
        "    b = Poly.make(QQ, b)\n"
        "    q, r = poly_divmod(a, b)\n"
        "    assert q.degree == 4000 - b.degree and r.degree < b.degree\n"
        "print('ok')\n")
    out = run_limited(["-c", script], limit_s=6)
    assert out.returncode == 0 and out.stdout == "ok\n"


def test_classify_degree_2000_ends_quickly():
    out = run_limited(["-m", "rittkit.cli", "classify", "--f", "x^2000"],
                      limit_s=5)
    assert out.returncode == 0
