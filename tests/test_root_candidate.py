"""`poly._root_candidate` is the one route from a root series to a
candidate.  The solvers built on it answer exactly as the route it
replaced, kept here as the reference: `series_root` of F's top
coefficients, then `Poly.make`, `scale` and `- c`, with each candidate
checked by a full composition or power and each left factor read off
repeated `poly_divmod`.  The inputs are planted compositions with
non-monic factors and negative or non-integral leads, inputs with no
right factor of the tried degree, and perfect powers, over Q and
Q(zeta 3, 5, 8).

Two structural guards: `right_factor_solve` scales and shifts no Poly,
and a normalized right factor that does not exist costs no Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import (QQ, CycElem, FieldExtensionRequiredError, LinearPoly,
                     Poly, compose, conjugate, cyclotomic_field,
                     left_factor_solve, normalized_right_factor,
                     right_factor_solve, solve_intertwiner)
from rittkit.field import nth_roots
from rittkit.poly import poly_divmod, poly_nth_root, power_form, series_root

PROPS = settings(derandomize=True, max_examples=30, deadline=None,
                 database=None)
FIELDS = st.sampled_from([QQ, cyclotomic_field(3), cyclotomic_field(5),
                          cyclotomic_field(8)])
small_q = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def scalars(K):
    if K == QQ:
        return small_q
    return st.lists(small_q, min_size=K.degree, max_size=K.degree).map(
        lambda v: CycElem(K, v))


def leads(K):
    """Nonzero rationals times roots of unity: `nth_roots` can take the
    roots of their powers."""
    q = small_q.filter(bool)
    if K == QQ:
        return q
    return st.builds(lambda c, j: c * K.zeta() ** j, q,
                     st.integers(0, K.order - 1))


@st.composite
def polys(draw, K, min_degree, max_degree):
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(scalars(K), min_size=d, max_size=d))
    return Poly.make(K, coeffs + [draw(leads(K))])


# -- the reference route --------------------------------------------------

def ref_top_root(F, n, terms):
    d = F.degree
    return series_root([F.coeff(d - i) for i in range(terms)], n, terms)


def ref_right_factor_solve(F, g):
    field = F.field
    m, e = g.degree, F.degree // g.degree
    roots = nth_roots(F.leading() / g.leading(), m, field)
    if not roots:
        raise FieldExtensionRequiredError("no lead", equation="")
    root = Poly.make(field, ref_top_root(F, m, e + 1)[::-1])
    c = g.coeff(m - 1) / (m * g.leading())
    out = []
    for a in roots:
        cand = root.scale(a) - c
        if compose(g, cand) == F and cand not in out:
            out.append(cand)
    return out


def ref_left_factor_solve(F, h):
    if F.degree % h.degree:
        return None
    digits, q = [], F
    while q.degree >= h.degree:
        q, r = poly_divmod(q, h)
        if r.degree > 0:
            return None
        digits.append(r.constant_term())
    return Poly.make(F.field, digits + [q.constant_term()])


def ref_normalized_right_factor(F, e):
    if F.degree < 2 or e < 1 or F.degree % e:
        return None
    hp = Poly.make(F.field, [0] + ref_top_root(F, F.degree // e, e)[::-1])
    g = ref_left_factor_solve(F, hp)
    return None if g is None else (g, hp)


def ref_poly_nth_root(F, n, lead_root):
    if F.is_zero() or F.degree % n:
        return None
    e = F.degree // n
    cand = Poly.make(F.field, ref_top_root(F, n, e + 1)[::-1]).scale(
        lead_root)
    return cand if cand ** n == F else None


def ref_power_form(F, n):
    s = F.multiplicity_at_zero()
    R = ref_poly_nth_root(Poly(F.field, F.coeffs[s:]).monic(), n, 1)
    return None if R is None else (s, R)


def ref_solve_intertwiner(left, right, deg_bound):
    field = left.field
    delta = left.degree
    c = left.coeff(delta - 1) / (delta * left.leading())
    found, blocked = [], False
    for b in range(1, deg_bound + 1):
        roots = nth_roots(right.leading() ** b / left.leading(), delta - 1,
                          field)
        blocked = blocked or not roots
        for a in roots:
            p = Poly.monomial(field, b, a)
            for _ in range(b.bit_length()):
                P = ref_top_root(compose(p, right), delta, b + 1)
                p = Poly.make(field, P[::-1]).scale(a) - c
            if compose(left, p) == compose(p, right) and p not in found:
                found.append(p)
    if not found and blocked:
        raise FieldExtensionRequiredError("no lead", equation="")
    return found


def outcome(fn, *args):
    """The result and its repr, or the type of the error raised."""
    try:
        r = fn(*args)
    except FieldExtensionRequiredError as err:
        return type(err)
    return r, repr(r)


def agree(fn, ref, *args):
    assert outcome(fn, *args) == outcome(ref, *args)


# -- differential properties ------------------------------------------------

@PROPS
@given(data=st.data(), K=FIELDS)
def test_planted_compositions(data, K):
    g, h = data.draw(polys(K, 2, 3)), data.draw(polys(K, 1, 3))
    F = compose(g, h)
    agree(right_factor_solve, ref_right_factor_solve, F, g)
    agree(left_factor_solve, ref_left_factor_solve, F, h)
    agree(normalized_right_factor, ref_normalized_right_factor, F, h.degree)
    assert right_factor_solve(F, g)


@PROPS
@given(data=st.data(), K=FIELDS)
def test_no_right_factor_of_the_tried_degree(data, K):
    F, g = data.draw(polys(K, 4, 6)), data.draw(polys(K, 2, 3))
    h = data.draw(polys(K, 1, 2))
    for e in range(1, F.degree + 1):
        agree(normalized_right_factor, ref_normalized_right_factor, F, e)
    if F.degree % g.degree == 0:
        agree(right_factor_solve, ref_right_factor_solve, F, g)
    if F.degree % h.degree == 0:
        agree(left_factor_solve, ref_left_factor_solve, F, h)


@PROPS
@given(data=st.data(), K=FIELDS, n=st.integers(2, 4), s=st.integers(0, 2))
def test_perfect_powers(data, K, n, s):
    h = data.draw(polys(K, 1, 3))
    F = Poly.monomial(K, s, data.draw(leads(K))) * h ** n
    tail = data.draw(scalars(K))
    for G in (F, F + tail):
        agree(power_form, ref_power_form, G, n)
        for a in nth_roots(G.leading(), n, K):
            agree(poly_nth_root, ref_poly_nth_root, G, n, a)
    assert power_form(F, n) is not None


@PROPS
@given(data=st.data(), K=FIELDS, deg_bound=st.integers(1, 3))
def test_intertwiners(data, K, deg_bound):
    f = data.draw(polys(K, 2, 3))
    ell = LinearPoly.make(K, data.draw(leads(K)), data.draw(scalars(K)))
    other = data.draw(polys(K, f.degree, f.degree))
    for left, right in ((conjugate(ell, f), f), (f, f), (other, f)):
        agree(solve_intertwiner, ref_solve_intertwiner, left, right,
              deg_bound)


# -- structural guards -------------------------------------------------------

def refuse(*args, **kwargs):
    raise AssertionError("an intermediate Poly was scaled or shifted")


@pytest.mark.parametrize("K", [QQ, cyclotomic_field(5)])
def test_right_factor_solve_scales_and_shifts_no_poly(monkeypatch, K):
    z = K.zeta() if K != QQ else Fraction(-3, 2)
    g = Poly.make(K, [Fraction(1, 3), -2, Fraction(-5, 2)])
    h = Poly.make(K, [z, Fraction(7, 3), 0, 2 * z])
    F = compose(g, h)
    monkeypatch.setattr(Poly, "scale", refuse)
    monkeypatch.setattr(Poly, "__sub__", refuse)
    sols = right_factor_solve(F, g)
    monkeypatch.undo()
    assert h in sols and all(compose(g, s) == F for s in sols)


def test_normalized_right_factor_miss_builds_no_fraction(monkeypatch):
    F = Poly.make(QQ, [Fraction(1, 3), 2, Fraction(-5, 7), 1, Fraction(3, 2),
                       0, Fraction(-9, 4)])
    assert normalized_right_factor(F, 3) is None
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    result = normalized_right_factor(F, 3)
    monkeypatch.undo()
    assert result is None and calls == []
