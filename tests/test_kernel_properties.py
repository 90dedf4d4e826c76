"""Property tests for the dense coefficient kernel and the code built on it."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy
from conftest import random_poly, rng_for
from hypothesis import given, settings
from hypothesis import strategies as st

import rittkit
from rittkit import QQ, CycElem, Poly, compose, cyclotomic_field, poly_gcd
from rittkit.field import (KRONECKER_MIN_LEN, cyclotomic_polynomial, dense_mul,
                          euler_phi, int_pseudo_divmod)
from rittkit.poly import _rev_compose_trunc, _vector, poly_divmod
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


# -- CycElem, integer numerators over one denominator, against Fractions

class RefCyc:
    """Reference element of Q(zeta m): a list of Fractions, reduced by
    Fraction long division modulo Phi_m and inverted by Gaussian
    elimination on the multiplication matrix."""

    def __init__(self, m, vec):
        phi = cyclotomic_polynomial(m)
        d = len(phi) - 1
        v = [Fraction(c) for c in vec]
        for k in range(len(v) - 1, d - 1, -1):      # Phi_m is monic
            c = v[k]
            for j in range(d + 1):
                v[k - d + j] -= c * phi[j]
        self.m = m
        self.v = (v + [Fraction(0)] * d)[:d]

    def __add__(self, o):
        return RefCyc(self.m, [a + b for a, b in zip(self.v, o.v)])

    def __sub__(self, o):
        return RefCyc(self.m, [a - b for a, b in zip(self.v, o.v)])

    def __mul__(self, o):
        out = [Fraction(0)] * (2 * len(self.v) - 1)
        for i, a in enumerate(self.v):
            for j, b in enumerate(o.v):
                out[i + j] += a * b
        return RefCyc(self.m, out)

    def __pow__(self, e):
        out = RefCyc(self.m, [1])
        for _ in range(abs(e)):
            out = out * self
        return out.inverse() if e < 0 else out

    def inverse(self):
        d = len(self.v)
        cols, cur = [], self
        for _ in range(d):                          # columns: self * t^i
            cols.append(cur.v)
            cur = cur * RefCyc(self.m, [0, 1])
        rows = [[cols[i][r] for i in range(d)] + [Fraction(r == 0)]
                for r in range(d)]
        for c in range(d):
            p = next(r for r in range(c, d) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(d):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return RefCyc(self.m, [row[d] for row in rows])


cyc_orders = st.sampled_from([3, 4, 5, 7, 8, 12, 15])
wide_q = st.one_of(
    st.just(Fraction(0)),
    small_q,
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(1, 2 ** 64)),
    st.builds(Fraction, st.integers(-9, 9),
              st.sampled_from([2 ** 64, 3 ** 40])))


def assert_matches(x, ref):
    """x equals ref, in canonical (nums, den) form, read back as Fractions."""
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert len(x.nums) == len(ref.v)
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == tuple(ref.v)
    twin = CycElem(x.field, ref.v)
    assert x == twin and hash(x) == hash(twin)
    assert (x.nums, x.den) == (twin.nums, twin.den)


@KERNEL
@given(data=st.data(), m=cyc_orders)
def test_cyc_elem_matches_fraction_reference(data, m):
    K = cyclotomic_field(m)
    vecs = [data.draw(st.lists(wide_q, min_size=K.degree, max_size=K.degree))
            for _ in range(2)]
    a, b = (CycElem(K, v) for v in vecs)
    ra, rb = (RefCyc(m, v) for v in vecs)
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a * b, ra * rb)
    assert_matches(a * a, ra * ra)
    e = data.draw(st.integers(0, 4))
    assert_matches(a ** e, ra ** e)
    long = data.draw(st.lists(wide_q, max_size=3 * K.degree))
    assert_matches(CycElem.from_vector(K, long), RefCyc(m, long))
    if a:
        assert_matches(a.inverse(), ra.inverse())
        assert_matches(a ** -2, ra ** -2)
        assert_matches(1 / a, ra.inverse())
        assert_matches(b / a, rb * ra.inverse())


@KERNEL
@given(data=st.data(), m=cyc_orders)
def test_cyc_elem_equal_values_hash_equal(data, m):
    K = cyclotomic_field(m)
    va, vb = (data.draw(st.lists(wide_q, min_size=K.degree,
                                 max_size=K.degree)) for _ in range(2))
    a, b = CycElem(K, va), CycElem(K, vb)
    r = data.draw(wide_q)
    same = [(a + b) - b, CycElem.from_vector(K, va + [0] * K.degree),
            -(-a), a * 1]
    if b:
        same.append(a * b * b.inverse())
    for x in same:
        assert x == a and hash(x) == hash(a)
        assert (x.nums, x.den) == (a.nums, a.den)
    ra = K.coerce(r)
    assert ra == r and ra.as_rational() == r
    assert (a == b) == (a.coeffs == b.coeffs)


@pytest.mark.parametrize("m", [60, 211])
def test_cyc_elem_inverse_large_order(m):
    K = cyclotomic_field(m)
    rng = rng_for(f"kernel-inverse-{m}")
    sparse = K.coerce(Fraction(-7, 3)) + K.zeta() ** (m // 2 + 1)
    short = CycElem(K, [2 ** 64 + 13, -(2 ** 63) - 5, 3 ** 40]
                    + [0] * (K.degree - 3))
    for x in (sparse, short,
              CycElem(K, [rng.randint(-3, 3) for _ in range(K.degree)]),
              CycElem(K, [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                          for _ in range(K.degree)])):
        y = x.inverse()
        assert x * y == 1 and y * x == K.one()
    assert sparse.inverse().inverse() == sparse


def test_euler_phi_bounds_the_order():
    for m in range(1, 3000):
        phi = euler_phi(m)
        assert phi == int(sympy.totient(m))
        assert 2 * phi * phi >= m           # so m > 2*cap^2 needs no factoring


@KERNEL
@given(data=st.data(), field=st.sampled_from([QQ, cyclotomic_field(5)]))
def test_poly_divmod_identity(data, field):
    a = data.draw(polys(field, 0, 7))
    b = data.draw(polys(field, 0, 4))
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


big_ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))


@KERNEL
@given(a=st.lists(big_ints, min_size=1, max_size=30),
       b=st.lists(big_ints, min_size=0, max_size=5),
       lead=big_ints.filter(bool))
def test_int_pseudo_divmod_identity(a, b, lead):
    b = b + [lead]
    f, q, r = int_pseudo_divmod(a, b)
    lhs = [f * x for x in a]
    rhs = dense_mul(q, b, 0) if q else []
    rhs = [x + y for x, y in zip(rhs + [0] * len(lhs), r + [0] * len(lhs))]
    assert rhs[:len(lhs)] == lhs and not any(rhs[len(lhs):])
    assert len(r) < len(b) and (not r or r[-1])
    assert f and lead ** max(0, len(a) - len(b) + 1) % f == 0


wide_q = st.one_of(small_q, st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64),
                                      st.integers(1, 2 ** 64)))


@st.composite
def wide_polys(draw, min_degree, max_degree):
    """Polynomials over Q with large denominators and leads of either sign."""
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(wide_q, min_size=d, max_size=d))
    return Poly.make(QQ, coeffs + [draw(wide_q.filter(bool))])


def _rev_trunc(q: Poly, m: int) -> list:
    """The top m + 1 coefficients of q, highest first, zero-padded."""
    d = q.degree
    return [q.coeff(d - i) if d - i >= 0 else q.field.zero()
            for i in range(m + 1)]


@KERNEL
@given(data=st.data(), K=st.sampled_from([QQ, QQ, QQ, cyclotomic_field(5)]))
def test_rev_compose_trunc_is_top_of_compose(data, K):
    """top/den against the full composition: m from below deg B (kmin =
    deg A) to past deg A*deg B (kmin = 0), over Q and Q(zeta 5)."""
    if K == QQ:
        A, B = data.draw(wide_polys(1, 5)), data.draw(wide_polys(1, 4))
    else:
        A, B = data.draw(polys(K, 1, 3)), data.draw(polys(K, 1, 3))
    dA, dB = A.degree, B.degree
    m = data.draw(st.sampled_from([0, dB - 1, dA * dB, dA * dB + 3])
                  | st.integers(0, 12))
    top, den = _rev_compose_trunc(_vector(A), _vector(B), m)
    assert den and len(top) == m + 1
    assert top == [c * den for c in _rev_trunc(compose(A, B), m)]


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
