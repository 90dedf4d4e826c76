"""Property tests for the dense coefficient kernel and the code built on it."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import sympy
from conftest import random_poly, rng_for
from hypothesis import given, settings
from hypothesis import strategies as st

import rittkit
from rittkit import QQ, CycElem, Poly, compose, cyclotomic_field, poly_gcd
from rittkit.field import KRONECKER_MIN_LEN, cyclotomic_polynomial, dense_mul
from rittkit.poly import _rev_compose_trunc, _rev_trunc, poly_divmod
from rittkit.roots import rational_roots

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


# -- rational products: Kronecker above the length threshold, schoolbook below

def schoolbook(a, b, top=None):
    """Reference product: every term, no skipping, no packing."""
    n = len(a) + len(b) - 1 if top is None else top + 1
    out = [Fraction(0)] * max(n, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


rationals = st.one_of(
    st.just(Fraction(0)),
    small_q,
    st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200),
              st.integers(1, 2 ** 64)),
    st.builds(Fraction, st.sampled_from([2 ** 200, -2 ** 200]),
              st.sampled_from([1, 3, 2 ** 61 - 1])))


@KERNEL
@given(a=st.lists(rationals, min_size=1, max_size=3 * KRONECKER_MIN_LEN),
       b=st.lists(rationals, min_size=1, max_size=3 * KRONECKER_MIN_LEN),
       top=st.one_of(st.none(), st.integers(0, 6 * KRONECKER_MIN_LEN)))
def test_rational_product_matches_schoolbook(a, b, top):
    assert dense_mul(a, b, Fraction(0), top) == schoolbook(a, b, top)


def test_rational_product_edge_cases():
    n = 2 * KRONECKER_MIN_LEN
    big = Fraction(2 ** 200)
    mixed = [Fraction((-1) ** i * (i + 1), 2 ** i + 1) for i in range(n)]
    cases = [
        ([big] * n, [big] * n),                       # widest digits
        ([big] * n, [-big] * n),
        ([(-1) ** i * big for i in range(n)], [-big] * n),
        ([Fraction(0)] * (n - 1) + [Fraction(3, 7)], mixed),   # one term
        ([Fraction(5, 3)], mixed),
        ([Fraction(0)] * n, mixed),
        ([Fraction(1, 2) if i % 5 == 0 else Fraction(0) for i in range(n)],
         mixed[::-1]),                                # sparse
        (mixed[:KRONECKER_MIN_LEN - 1], mixed),       # both sides of the
        (mixed[:KRONECKER_MIN_LEN], mixed),           # threshold
    ]
    for a, b in cases:
        for top in (None, 0, KRONECKER_MIN_LEN - 1, n, 3 * n):
            assert dense_mul(a, b, Fraction(0), top) == schoolbook(a, b, top)
            assert dense_mul(b, a, Fraction(0), top) == schoolbook(b, a, top)
    for bits in range(192, 200):              # every digit width mod 8
        for n in (15, 16, 17):
            a = [Fraction(2 ** 200 - 1)] * n
            for sign in (1, -1):
                b = [Fraction(sign * (2 ** bits - 1))] * n
                assert dense_mul(a, b, Fraction(0)) == schoolbook(a, b)
    p, q = Poly.make(QQ, mixed), Poly.make(QQ, [big] + mixed[1:])
    assert (p * q).coeffs == tuple(schoolbook(p.coeffs, q.coeffs))


# -- gcd over Q by the primitive integer remainder sequence

def sympy_monic_gcd(a, b):
    t_a = sympy.Poly(list(a.coeffs[::-1]) or [0], t, domain="QQ")
    t_b = sympy.Poly(list(b.coeffs[::-1]) or [0], t, domain="QQ")
    g = t_a.gcd(t_b)
    return Poly.make(QQ, [Fraction(int(c.p), int(c.q))
                          for c in g.monic().all_coeffs()[::-1]]
                     if not g.is_zero else [])


q_polys = st.one_of(st.just(Poly(QQ, ())), polys(QQ, 0, 6))


@KERNEL
@given(g=q_polys, u=q_polys, v=q_polys)
def test_rational_gcd_matches_sympy(g, u, v):
    for a, b in ((g * u, g * v), (u, v), (g, Poly(QQ, ())),
                 (Poly(QQ, ()), g), (u, Poly.constant(QQ, Fraction(-2, 3)))):
        assert poly_gcd(a, b) == sympy_monic_gcd(a, b)


def test_rational_gcd_squarefree_case_degree_60():
    rng = rng_for("kernel-gcd-h2g")
    h, g = random_poly(rng, 20), random_poly(rng, 20)
    F = h * h * g
    assert F.degree == 60
    D = F.derivative()
    assert poly_gcd(F, D) == sympy_monic_gcd(F, D)
    assert poly_gcd(F, h * g) == sympy_monic_gcd(F, h * g)


# -- rational roots by Hensel lifting

@KERNEL
@given(roots=st.lists(st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                                st.integers(1, 10 ** 6)), max_size=4),
       cofactor=polys(QQ, 0, 4), mult=st.integers(1, 2))
def test_rational_roots_match_sympy(roots, cofactor, mult):
    F = cofactor
    for r in roots:
        F = F * Poly.make(QQ, [-r, 1]) ** mult
    expected = sorted(
        -Fraction(int(c0.p), int(c0.q)) / Fraction(int(c1.p), int(c1.q))
        for f, _ in sympy.Poly(list(F.coeffs[::-1]), t,
                               domain="QQ").factor_list()[1]
        if f.degree() == 1 for c1, c0 in [f.all_coeffs()])
    assert rational_roots(F.coeffs) == expected


SRC = str(Path(rittkit.__file__).resolve().parent.parent)


def run_limited(args, limit_s):
    """Run python with args, failing the test if it runs past limit_s."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, timeout=limit_s,
                          capture_output=True, text=True)


def test_rational_roots_large_constant_ends_quickly():
    out = run_limited(["-c", "from rittkit.roots import rational_roots; "
                             "print(rational_roots([10**30 + 57, 0, 0, 1]))"],
                      limit_s=10)
    assert out.returncode == 0 and out.stdout == "[]\n"


def test_inou_large_constant_ends_in_exit_4():
    f = "x^3 + x + 1000000000000000000000000000057"
    out = run_limited(["-m", "rittkit.cli", "inou", "--f", f, "--p", "x",
                       "--eta", f], limit_s=10)
    assert out.returncode == 4
    assert "error: field-extension-required" in out.stdout
