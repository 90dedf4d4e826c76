"""Engstrom refinement, the equal-degree linear map and the power normal
form read off data the library already holds.

`engstrom_refine` and `equal_degree_linear` take every map from left
factors (the h-adic digits of `left_factor_solve`) and never solve for a
leading coefficient, and `power_normal_form` reads n = |Gamma(A)| and
the straightened map off the centred form.  The searches they replaced
are kept here as references: each new result equals the reference
wherever the reference answers, and where the reference asked for a
field extension the new result is a verified certificate.
"""

import io
from contextlib import redirect_stdout
from math import gcd

import pytest
from conftest import random_poly, rng_for
from hypothesis import given
from hypothesis import strategies as st
from test_kernel_properties import KERNEL

from rittkit import (QQ, CycElem, FieldExtensionRequiredError, LinearPoly,
                     Poly, align_iterates, compose, cyclotomic_field,
                     engstrom_refine, gamma_group, iterate, power_normal_form,
                     right_factor_solve)
from rittkit import decompose, symmetry
from rittkit.cli import run_command
from rittkit.decompose import (EngstromCertificate, equal_degree_linear,
                               left_factor_solve, normalized_right_factor)
from rittkit.symmetry import PowerNormalForm

FIELDS = [QQ, cyclotomic_field(3), cyclotomic_field(8)]
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def reference_equal_degree_linear(a, c, b, d):
    """The linear map by a search over the right factors of a by c."""
    for cand in right_factor_solve(a, c):
        if cand.degree == 1:
            ell = LinearPoly.from_poly(cand)
            if compose(ell.inverse().to_poly(), d) == b:
                return ell
    return None


def reference_engstrom_refine(a, b, c, d):
    """Both left factors split, related by a linear mu found by search."""
    field = a.field
    D, E = gcd(a.degree, c.degree), gcd(b.degree, d.degree)
    if D == a.degree:
        g0, a_hat = a, Poly.x(field)
    else:
        split = normalized_right_factor(a, a.degree // D)
        if split is None:
            raise FieldExtensionRequiredError("no left factor for a")
        g0, a_hat = split
    if D == c.degree:
        g1, c_hat0 = c, Poly.x(field)
    else:
        split = normalized_right_factor(c, c.degree // D)
        if split is None:
            raise FieldExtensionRequiredError("no left factor for c")
        g1, c_hat0 = split
    mus = [cand for cand in right_factor_solve(g1, g0) if cand.degree == 1]
    if not mus:
        raise FieldExtensionRequiredError("left factors not related")
    if E == b.degree:
        h, b_hat = b, Poly.x(field)
    else:
        split = normalized_right_factor(b, E)
        if split is None:
            raise FieldExtensionRequiredError("no right factor for b")
        b_hat, h = split
    d_hat = left_factor_solve(d, h)
    if d_hat is None:
        raise FieldExtensionRequiredError("h is not a right factor of d")
    c_hat = None
    for mu in mus:
        cand = compose(mu, c_hat0)
        if compose(a_hat, b_hat) == compose(cand, d_hat):
            c_hat = cand
            break
    if c_hat is None:
        c_hat = compose(mus[0], c_hat0)
    ell = (reference_equal_degree_linear(a, c, b, d)
           if a.degree == c.degree else None)
    return EngstromCertificate(g0, h, a_hat, b_hat, c_hat, d_hat, ell)


def reference_power_normal_form(A):
    """Straighten A by the fixed point of a generator of gamma_group(A)."""
    grp = gamma_group(A)
    if grp.kind == "Infinite":
        return None
    K = A.field
    n = len(grp.elements)
    if n == 1:
        ell2, tilde = LinearPoly.identity(K), A
    else:
        gen = grp.generator
        ell2 = LinearPoly.make(K, 1, gen.b / (K.one() - gen.a))
        tilde = compose(A, ell2.to_poly())
    a0 = tilde.constant_term()
    C = tilde - a0
    s = C.multiplicity_at_zero()
    coeffs = [C.coeff(s + n * k) for k in range((C.degree - s) // n + 1)]
    return PowerNormalForm(LinearPoly.make(K, 1, -a0), ell2, s, n,
                           Poly.make(K, coeffs))


def scalars(field):
    if field == QQ:
        return small_q
    return st.lists(small_q, min_size=field.degree,
                    max_size=field.degree).map(lambda v: CycElem(field, v))


@st.composite
def polys(draw, field, low, high):
    degree = draw(st.integers(low, high))
    coeffs = draw(st.lists(scalars(field), min_size=degree, max_size=degree))
    return Poly.make(field, coeffs + [draw(scalars(field).filter(bool))])


@st.composite
def linears(draw, field):
    """a*x + b, with a scaled by 1 + z half the time over Q(zeta m)."""
    a = draw(scalars(field).filter(bool))
    if field != QQ and draw(st.booleans()):
        a = a * (field.one() + field.zeta())
    return LinearPoly.make(field, a, draw(scalars(field)))


def check_against_reference(a, b, c, d):
    cert = engstrom_refine(a, b, c, d)
    assert cert.verify(a, b, c, d)
    if a.degree == c.degree:
        assert compose(c, cert.ell.to_poly()) == a
        assert compose(cert.ell.inverse().to_poly(), d) == b
    try:
        ref = reference_engstrom_refine(a, b, c, d)
    except FieldExtensionRequiredError:
        return
    assert cert == ref


def test_engstrom_scale_one_plus_zeta_in_the_cli():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command([
            "engstrom", "--field", "Q(zeta 8)",
            "--a", "(1+z)^2*x^2 + (1+z)*x", "--b", "x^3 + x",
            "--c", "x^2 + x", "--d", "(1+z)*x^3 + (1+z)*x"])
    out = buf.getvalue().splitlines()
    assert code == 0
    assert "ell: (1 + z)*x" in out and "verified: true" in out


def test_engstrom_scale_one_plus_zeta():
    # the search over right factors asked for t^2 = -1/2 + 1/2*z^2 - z^3,
    # whose root 1/(1 + z) lies in Q(zeta 8)
    K = cyclotomic_field(8)
    L = LinearPoly.make(K, K.one() + K.zeta(), 0)
    c, h = Poly.make(K, [0, 1, 1]), Poly.make(K, [0, 1, 0, 1])
    a, b = compose(c, L.to_poly()), h
    d = compose(L.to_poly(), h)
    with pytest.raises(FieldExtensionRequiredError):
        reference_engstrom_refine(a, b, c, d)
    cert = engstrom_refine(a, b, c, d)
    assert cert.verify(a, b, c, d)
    assert cert.ell == L
    assert equal_degree_linear(a, c, b, d) == L


@pytest.mark.parametrize("field", FIELDS, ids=str)
@KERNEL
@given(data=st.data())
def test_engstrom_refine_matches_the_search(field, data):
    g = data.draw(polys(field, 2, 3))
    h = data.draw(polys(field, 2, 3))
    m = data.draw(polys(field, 1, 2))
    L = data.draw(linears(field)).to_poly()
    Linv = LinearPoly.from_poly(L).inverse().to_poly()
    check_against_reference(g, compose(m, h), compose(g, m), h)
    check_against_reference(compose(g, L), compose(Linv, h), g, h)
    check_against_reference(g, h, g, h)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@KERNEL
@given(data=st.data())
def test_equal_degree_linear_matches_the_search(field, data):
    c = data.draw(polys(field, 2, 4))
    d = data.draw(polys(field, 1, 3))
    ell = data.draw(linears(field))
    a = compose(c, ell.to_poly())
    b = compose(ell.inverse().to_poly(), d)
    for args in [(a, c, b, d), (a + 1, c, b, d), (a, c, b + d, d)]:
        got = equal_degree_linear(*args)
        try:
            ref = reference_equal_degree_linear(*args)
        except FieldExtensionRequiredError:
            continue
        assert got == ref
    assert equal_degree_linear(a, c, b, d) == ell


@pytest.mark.parametrize("field", FIELDS, ids=str)
@KERNEL
@given(data=st.data())
def test_power_normal_form_matches_gamma(field, data):
    # ell1 o x^r*P(x^e) o (x + t), P(0) != 0
    r, e = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4))
    core = data.draw(polys(field, 1, 3))
    core = core - core.constant_term() + data.draw(scalars(field).filter(bool))
    A = Poly.monomial(field, r) * compose(core, Poly.monomial(field, e))
    if A.degree < 2:
        return
    outer = data.draw(linears(field)).to_poly()
    shift = Poly.make(field, [data.draw(scalars(field)), 1])
    A = compose(outer, compose(A, shift))
    nf = power_normal_form(A)
    assert nf == reference_power_normal_form(A)
    assert nf is None or nf.verify(A)


def _raise(*args, **kwargs):
    raise AssertionError("a solver ran where left factors suffice")


def test_no_root_search_on_the_examples(monkeypatch):
    monkeypatch.setattr(decompose, "right_factor_solve", _raise)
    monkeypatch.setattr(decompose, "nth_roots", _raise)
    monkeypatch.setattr(symmetry, "gamma_group", _raise)
    # tests/test_decompose.py and criterion 6 of tests/test_acceptance.py
    quads = [(P(0, 0, 1), P(0, 1, 1), P(1, -2, 1), P(1, 1, 1)),
             (P(0, 0, 1), P(0, 0, 0, 1), P(0, 0, 0, 1), P(0, 0, 1))]
    for name in ("engstrom", "acceptance-engstrom"):
        rng = rng_for(name)
        for _ in range(100):
            g = random_poly(rng, rng.randint(2, 3))
            h = random_poly(rng, rng.randint(2, 3))
            m = random_poly(rng, rng.randint(1, 2))
            quads.append((g, compose(m, h), compose(g, m), h))
    for a, b, c, d in quads:
        cert = engstrom_refine(a, b, c, d)
        assert cert.verify(a, b, c, d)
        if a.degree == c.degree:
            assert equal_degree_linear(a, c, b, d) == cert.ell
    assert engstrom_refine(*quads[0]).ell.to_poly() == P(1, 1)
    # align_iterates in tests/test_symmetry.py and criterion 8
    f, g = P(0, -1, 0, -1), P(0, 1, 0, 1)
    ell, N = align_iterates(f, g, LinearPoly.identity(QQ), 2)
    assert iterate(f, N) == iterate(compose(ell.to_poly(), compose(
        g, ell.inverse().to_poly())), N)
    # the maps of tests/test_symmetry.py and tests/test_conjugacy.py
    K = cyclotomic_field(3)
    shapes = {P(0, 1, 0, 1): 2, P(0, 0, 1, 1): 2, P(7, 0, 1, 1): 2,
              P(1, 2, 0, 0, 1): 1, P(0, 1, 0, 0, 1): 1,
              Poly.make(K, [0, 1, 0, 0, 1]): 3,
              P(1, 0, 1): None, Poly.monomial(QQ, 5): None}
    for A, n in shapes.items():
        nf = power_normal_form(A)
        assert (None if nf is None else nf.n) == n
        assert nf is None or nf.verify(A)
