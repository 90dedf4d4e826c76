"""The centred form serves every linear-map solve.

`poly.centred(f)` is the one place a map is centred.  `_scale_polynomial`
reads its scale equations off the centred forms of f and g as binomials,
`m_infinity` walks the scales of the centred map, and `power_shape` is a
test on the centred form.  Each is compared here with a reference written
out in the test without the centred form: the substitution f(u*x + v(u))
as a polynomial in x over K[u], the commuting linear maps of each
iterate solved from its top two coefficients, and the power
lc(f)*(x + t)^d.  The linear maps that `gamma_group` and
`equivalence_witness` read off the centred forms are composed back.  The
scale gcd, taken on exponents, is compared with a fold of `poly_gcd`
over the dense binomials, and its roots, n-th roots, with the roots
that `in_field_roots` finds of u^n - c.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_kernel_properties import KERNEL

from rittkit import (QQ, CycElem, LinearPoly, Poly, compose, conjugate,
                     cyclotomic_field, equivalence_witness, gamma_group,
                     iterate, m_infinity, poly_gcd)
from rittkit.conjugacy import _binomial_gcd, _scale_polynomial
from rittkit.field import nth_roots, roots_of_unity, scalar_sort_key
from rittkit.poly import centred, power_shape
from rittkit.roots import in_field_roots

FIELDS = [QQ, cyclotomic_field(3), cyclotomic_field(5)]
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def scalars(field):
    if field == QQ:
        return small_q
    return st.lists(small_q, min_size=field.degree,
                    max_size=field.degree).map(lambda v: CycElem(field, v))


@st.composite
def polys(draw, field, degree):
    coeffs = draw(st.lists(scalars(field), min_size=degree, max_size=degree))
    return Poly.make(field, coeffs + [draw(scalars(field).filter(bool))])


@st.composite
def linears(draw, field):
    return Poly.make(field, [draw(scalars(field)),
                             draw(scalars(field).filter(bool))])


def substitution_scales(f: Poly, g: Poly):
    """(G, v) from the coefficients of f(u*x + v(u)) in x, as Polys in u.

    v(u) = alpha*u + beta matches the x^(d-1) coefficients, and G is the
    monic gcd of g_d*[x^i] f(u*x + v(u)) - g_i*f_d*u^d for 1 <= i <= d-2.
    """
    K, d = f.field, f.degree
    alpha = g.coeff(d - 1) / (d * g.leading())
    beta = -f.coeff(d - 1) / (d * f.leading())
    u = Poly.x(K)
    shift = u.scale(alpha) + beta
    acc = []                            # acc[i]: the coefficient of x^i
    for c in reversed(f.coeffs):        # Horner: acc*(u*x + v(u)) + c
        nxt = [Poly(K, ())] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] = nxt[i + 1] + a * u
            nxt[i] = nxt[i] + a * shift
        nxt[0] = nxt[0] + c
        acc = nxt
    G = Poly(K, ())
    for i in range(1, d - 1):
        G = poly_gcd(G, acc[i].scale(g.leading())
                     - Poly.monomial(K, d, g.coeff(i) * f.leading()))
    return G, Poly.make(K, [beta, alpha])


@st.composite
def scale_pairs(draw, field):
    """(f, g) of one degree: g = L2 o f o L1, a random g, or both cyclic."""
    d = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["equivalent", "random", "cyclic"]))
    if kind == "cyclic":
        f = Poly.monomial(field, d) + draw(scalars(field))
        f = compose(draw(linears(field)), compose(f, draw(linears(field))))
    else:
        f = draw(polys(field, d))
    if kind == "random":
        g = draw(polys(field, d))
    else:
        g = compose(draw(linears(field)), compose(f, draw(linears(field))))
    return f, g


@KERNEL
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_scale_polynomial_matches_substitution(data, field):
    f, g = data.draw(scale_pairs(field))
    assert _scale_polynomial(f, g) == substitution_scales(f, g)


def test_scale_polynomial_low_degrees():
    # d = 2 has no equation, so G is zero; d = 3 has one, at i = 1
    for K in FIELDS:
        f = Poly.make(K, [1, 2, 3])
        g = Poly.make(K, [5, -1, 7])
        assert _scale_polynomial(f, g)[0].is_zero()
        assert _scale_polynomial(f, g) == substitution_scales(f, g)
        f3 = Poly.make(K, [1, 2, 0, 1])
        for g3 in (Poly.make(K, [0, 3, 1, 2]), Poly.make(K, [4, 0, 0, 1]),
                   compose(f3, Poly.make(K, [1, 2]))):
            assert _scale_polynomial(f3, g3) == substitution_scales(f3, g3)


@KERNEL
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_iterates_of_the_centred_map_are_centred(data, field):
    f = data.draw(polys(field, data.draw(st.integers(2, 3))))
    s, C = centred(f)
    assert not C.coeff(C.degree - 1)
    assert C == conjugate(LinearPoly.make(field, 1, s), f)
    for k in range(1, 4):
        assert centred(iterate(f, k)) == (s, iterate(C, k))


def commuting_linears(F: Poly) -> set:
    """(a, b) for each in-field a*x + b that commutes with F.

    The x^n terms of F(a*x + b) = a*F + b force a^(n-1) = 1, and then
    the x^(n-1) terms force n*F_n*b = F_(n-1)*(a - 1); each candidate is
    checked by composing.
    """
    K, n = F.field, F.degree
    out = set()
    for a in set(roots_of_unity(K)):
        if a ** (n - 1) != K.one():
            continue
        b = F.coeff(n - 1) * (a - 1) / (n * F.leading())
        ell = Poly.make(K, [b, a])
        if compose(F, ell) == compose(ell, F):
            out.add((a, b))
    return out


@st.composite
def symmetric_maps(draw, field):
    """x^r*P(x^e) conjugated by a translation, e a root-of-unity order."""
    e = draw(st.sampled_from([2] if field == QQ else [2, field.order]))
    r = draw(st.integers(0, 1))
    P = draw(polys(field, draw(st.integers(1, 2 if e == 2 else 1))))
    B = Poly.monomial(field, r) * compose(P, Poly.monomial(field, e))
    if B.degree < 2:
        B = B + Poly.monomial(field, e * 2 + r)
    return conjugate(LinearPoly.make(field, 1, draw(scalars(field))), B)


@KERNEL
@given(data=st.data(), field=st.sampled_from(FIELDS), bound=st.integers(1, 3))
def test_m_infinity_matches_iterate_solves(data, field, bound):
    f = data.draw(st.one_of(symmetric_maps(field),
                            polys(field, data.draw(st.integers(2, 3)))))
    if f.degree ** bound > 200:
        bound = 1
    first = {}
    for k in range(1, bound + 1):
        for key in commuting_linears(iterate(f, k)):
            first.setdefault(key, k)
    got = m_infinity(f, bound)
    assert {(e.a, e.b) for e in got.elements} == set(first)
    half = (bound + 1) // 2
    assert got.stable_at == (half if max(first.values()) <= half else None)


def power_reference(f: Poly):
    """(t, e) with f = lc(f)*(x + t)^d + e, by expanding the power."""
    d = f.degree
    t = f.coeff(d - 1) / (d * f.leading())
    diff = f - (Poly.make(f.field, [t, 1]) ** d).scale(f.leading())
    return (t, diff.constant_term()) if diff.degree <= 0 else None


@KERNEL
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_power_shape_matches_expanded_power(data, field):
    d = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        f = (Poly.make(field, [data.draw(scalars(field)), 1]) ** d).scale(
            data.draw(scalars(field).filter(bool))) + data.draw(scalars(field))
    else:
        f = data.draw(polys(field, d))
    assert power_shape(f) == power_reference(f)


@KERNEL
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_linear_maps_read_off_the_centred_form_compose_back(data, field):
    f, g = data.draw(scale_pairs(field))
    grp = gamma_group(f)
    for ell, L in zip(grp.elements, grp.companions):
        assert compose(f, ell.to_poly()) == compose(L.to_poly(), f)
    wit = equivalence_witness(f, g)
    if wit is not None:
        L1, L2 = wit
        assert compose(L2.to_poly(), compose(f, L1.to_poly())) == g
    G = _scale_polynomial(f, g)[0]
    assert (wit is None) == (bool(G) and not any(in_field_roots(G)))


def binomial_gcd_by_division(field, binomials) -> Poly:
    """The scale gcd as first computed: poly_gcd folded over the dense
    binomials c*u^i - e*u^j, stopped at a constant."""
    G = Poly(field, ())
    for c, i, e, j in binomials:
        if c or e:
            G = poly_gcd(G, Poly.monomial(field, i, c)
                         - Poly.monomial(field, j, e))
            if G.degree == 0:
                break
    return G


@st.composite
def binomial_lists(draw, field):
    """(c, i, e, j) lists: binomials planted on one u^b - q or just off
    it, random ones, monomials, i = j and zero binomials, with exponents
    up to 3,000."""
    b = draw(st.integers(1, 6))
    q = draw(st.sampled_from(roots_of_unity(field)))
    top = 3000 // b                     # q^t stays small for a unit q
    if draw(st.booleans()):
        q, top = q * draw(small_q.filter(bool)), 20
    exps = st.one_of(st.integers(0, 12), st.integers(0, 3000))
    kinds = draw(st.sampled_from([["planted"], [
        "monomial", "planted", "off", "random", "equal", "zero"], ["zero"]]))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        c, e = draw(scalars(field)), draw(scalars(field))
        i, j = draw(exps), draw(st.one_of(st.integers(0, 1), exps))
        if kind in ("planted", "off"):  # "off" misses u^b - q
            c = c or field.one()
            t = draw(st.integers(1, top))
            i, e = j + b * t, c * q ** t * (2 if kind == "off" else 1)
            if draw(st.booleans()):
                c, i, e, j = e, j, c, i
        elif kind == "monomial":        # c*u^i or -e*u^j, i != j
            zero, one, j = field.zero(), field.one(), j + (i == j)
            c, e = ((c or one, zero) if draw(st.booleans())
                    else (zero, e or one))
        elif kind == "equal":
            j = i
        elif kind == "zero":
            c, e, i, j = ((c, c, i, i) if draw(st.booleans())
                          else (field.zero(), field.zero(), i, j))
        out.append((c, i, e, j))
    return out


@pytest.mark.parametrize("field", FIELDS)
@KERNEL
@given(data=st.data())
def test_binomial_gcd_on_exponents_matches_poly_gcd(data, field):
    binomials = data.draw(binomial_lists(field))
    for part in [binomials, []] + [[b] for b in binomials]:
        assert (_binomial_gcd(field, part)
                == binomial_gcd_by_division(field, part))


@KERNEL
@given(data=st.data(), order=st.sampled_from([1, 3, 4, 5, 8, 12]),
       n=st.integers(1, 12))
def test_nth_roots_are_the_roots_of_a_binomial(data, order, n):
    field = QQ if order == 1 else cyclotomic_field(order)
    c = data.draw(scalars(field).filter(bool))
    if data.draw(st.booleans()):        # a q*w with n-th roots
        c = (c * data.draw(st.sampled_from(roots_of_unity(field)))) ** n
    found = nth_roots(c, n, field)
    assert sorted(found, key=scalar_sort_key) == in_field_roots(
        Poly.monomial(field, n) - Poly.constant(field, c))
