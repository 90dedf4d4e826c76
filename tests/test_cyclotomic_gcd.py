"""The modular gcd over Q(zeta m) against the field Euclid it replaced,
against sympy, and at unlucky primes."""

from fractions import Fraction
from itertools import chain, islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ as SYMPY_QQ

from rittkit import CycElem, Poly, cyclotomic_field, poly_gcd
from rittkit import poly as poly_module
from rittkit.field import splitting_primes, splitting_tables
from rittkit.poly import exact_div, poly_divmod, squarefree_part

KERNEL = settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)

ORDERS = (3, 4, 5, 7, 8, 12)
small_q = st.fractions(min_value=-4, max_value=4, max_denominator=3)
X = sympy.Symbol("x")


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """The field Euclid that poly_gcd ran over Q(zeta m) before the
    modular gcd, kept as the reference: one field division per step."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a.monic() if not a.is_zero() else a


def cyc_elems(K, nonzero=False):
    out = st.lists(small_q, min_size=K.degree, max_size=K.degree).map(
        lambda v: CycElem(K, v))
    return out.filter(bool) if nonzero else out


@st.composite
def polys(draw, K, min_degree, max_degree):
    """Polynomials over K, most not monic, coefficients with denominators."""
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(cyc_elems(K), min_size=d, max_size=d))
    return Poly.make(K, coeffs + [draw(cyc_elems(K, nonzero=True))])


@st.composite
def gcd_pairs(draw, orders=ORDERS):
    """(a, b) over Q(zeta m): a planted common factor of degree 0-4, a
    pair with no planted factor, or a zero or constant side."""
    K = cyclotomic_field(draw(st.sampled_from(orders)))
    kind = draw(st.sampled_from(("planted", "coprime", "zero", "constant")))
    if kind == "planted":
        g = draw(polys(K, 0, 4))
        return draw(polys(K, 0, 3)) * g, draw(polys(K, 0, 3)) * g
    a = draw(polys(K, 0, 5))
    if kind == "coprime":
        b = draw(polys(K, 0, 5))
    elif kind == "zero":
        b = Poly(K, ())
    else:
        b = draw(polys(K, 0, 0))
    return (a, b) if draw(st.booleans()) else (b, a)


@KERNEL
@given(pair=gcd_pairs())
def test_gcd_matches_the_field_euclid(pair):
    a, b = pair
    g = poly_gcd(a, b)
    assert g == euclid_gcd(a, b)
    assert g == poly_gcd(b, a)


@KERNEL
@given(data=st.data(), m=st.sampled_from(ORDERS))
def test_squarefree_part_matches_the_field_euclid(data, m):
    K = cyclotomic_field(m)
    u, v = data.draw(polys(K, 1, 2)), data.draw(polys(K, 0, 2))
    F = u * u * v
    g = euclid_gcd(F, F.derivative())
    want = exact_div(F, g) if g.degree >= 1 else F
    assert squarefree_part(F) == want


def sympy_field(m):
    return SYMPY_QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / m))


def to_sympy(p: Poly, field) -> sympy.Poly:
    """p over sympy's Q(exp(2*pi*I/m)), whose elements are coefficient
    lists in the same generator, highest power first."""
    coeffs = [field.new([SYMPY_QQ(c.numerator, c.denominator)
                         for c in reversed(e.coeffs)])
              for e in reversed(p.coeffs)]
    return sympy.Poly.from_list(coeffs or [field.zero], X, domain=field)


def from_sympy(p: sympy.Poly, K) -> Poly:
    coeffs = []
    for e in reversed(p.rep.to_list()):
        vec = [Fraction(int(c.numerator), int(c.denominator))
               for c in reversed(e.to_list())]
        coeffs.append(CycElem.from_vector(K, vec or [0]))
    return Poly.make(K, coeffs)


@KERNEL
@given(pair=gcd_pairs(orders=(3, 5)))
def test_gcd_matches_sympy(pair):
    a, b = pair
    K, field = a.field, sympy_field(a.field.order)
    g = sympy.gcd(to_sympy(a, field), to_sympy(b, field))
    want = Poly(K, ()) if g.is_zero else from_sympy(g.monic(), K)
    assert poly_gcd(a, b) == want


# -- unlucky primes: the sequence is patched to start with chosen primes ------

K5 = cyclotomic_field(5)
Z = Poly.constant(K5, K5.zeta())
XK = Poly.x(K5)


def unlucky_cases():
    """(name, a, b, primes in front of the real sequence), over Q(zeta 5),
    where 11, 31 and 41 are 1 mod 5; None stands for the next real one."""
    common = XK - Z
    # 11 divides the denominator of a coefficient of a
    yield ("denominator", common * (XK + Fraction(1, 11)),
           common * (XK - 2), [11])
    # both leading coefficients are z - 3, 0 at zeta -> 3 mod 11, where
    # the images (-(x + 2), -(x - 5)) are coprime: the gcd is
    # x - 1/(z - 3), not 1
    lin = (Z - 3) * XK - 1
    yield "leading", lin * (XK + 2), lin * (XK - 5), [11]
    # x - 1 - 11*31 is x - 1 mod 11 and 31: there the gcd is
    # (x - z)(x - 1), of degree 2, a candidate that divides a only
    yield "degree", common * (XK - 1), common * (XK - 1 - 11 * 31), [11, 31]
    # the same after a lucky prime, with a common factor whose
    # coordinates need three primes to reconstruct
    big = XK - Fraction(2 ** 40 + 15, 3 ** 20) - Fraction(7 ** 15, 2 ** 33) * Z
    yield "degree-late", big * (XK - 1), big * (XK - 42), [None, 41]


@pytest.mark.parametrize("case", list(unlucky_cases()),
                         ids=lambda c: c[0])
def test_gcd_at_unlucky_primes(case, monkeypatch):
    name, a, b, front = case
    want = euclid_gcd(a, b)
    assert want.degree >= 1
    # the roots of Phi_5 mod 11, one per residue map zeta -> w
    assert sorted(w[1] for w in splitting_tables(5, 11)[0]) == [3, 4, 5, 9]

    def patched(m):
        # the sequence is finite, so a search that never accepts fails
        # instead of running on
        real = islice(splitting_primes(m), 40)
        return chain((next(real) if p is None else p for p in front), real)

    monkeypatch.setattr(poly_module, "splitting_primes", patched)
    assert poly_gcd(a, b) == want
    assert poly_gcd(b, a) == want
