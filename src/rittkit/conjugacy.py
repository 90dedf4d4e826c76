"""Shape classification of polynomials.

Cyclic/dihedral status is decided in the sense of the algebraic closure
(the coefficient conditions below are closure-complete), while conjugacy
witnesses are only reported when they exist in the ambient field; a missing
in-field witness is surfaced as a hint instead of an error so that
classification always completes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivar import affine_substitution_coeffs
from .decompose import left_factor_solve
from .errors import RittKitError
from .field import nth_roots
from .poly import (LinearPoly, Poly, chebyshev, compose, conjugate, poly_gcd,
                   power_shape)
from .roots import in_field_roots


@dataclass(frozen=True)
class ShapeReport:
    is_cyclic: bool
    is_dihedral: bool
    conj_to_power: LinearPoly | None
    conj_to_pm_chebyshev: tuple | None  # (sign, LinearPoly)
    disintegrated: bool
    hints: tuple = ()


@dataclass(frozen=True)
class PowerNormalForm:
    ell1: LinearPoly
    ell2: LinearPoly
    s: int
    n: int
    P: Poly

    def verify(self, A: Poly) -> bool:
        lhs = compose(self.ell1.to_poly(), compose(A, self.ell2.to_poly()))
        rhs = Poly.monomial(A.field, self.s) * compose(
            self.P, Poly.monomial(A.field, self.n))
        return lhs == rhs


def _dihedral_data(f: Poly):
    """Closure-level test for f = L2 o T_delta o L1.

    Returns (t, g, w) with g = f(x - t) free of x^(delta-1); w = u^2 for
    the inner scale u when the coefficient test holds, None otherwise.
    """
    delta = f.degree
    fieldK = f.field
    t = f.coeff(delta - 1) / (delta * f.leading())
    g = compose(f, Poly.make(fieldK, [-t, 1]))
    if not g.coeff(delta - 2):
        return t, g, None
    T = chebyshev(delta, fieldK)
    w = fieldK.coerce(-delta) * g.leading() / g.coeff(delta - 2)
    # need g_i / g_delta = c_i * u^(i - delta); the exponent is even
    for i in range(1, delta):
        ci, gi = T.coeff(i), g.coeff(i)
        if not ci:
            if gi:
                return t, g, None
        elif gi / g.leading() != ci * w ** ((i - delta) // 2):
            return t, g, None
    return t, g, w


def _conj_power_witness(f: Poly, shape):
    """(closure_conjugate, in-field ell with ell o f o ell^{-1} = x^delta).

    shape is power_shape(f); f is conjugate to x^delta over the closure
    iff f = lc*(x + beta)^delta - beta.
    """
    if shape is None or shape[1] != -shape[0]:
        return False, None
    beta = shape[0]
    delta = f.degree
    for a in nth_roots(f.leading(), delta - 1, f.field):
        ell = LinearPoly.make(f.field, a, a * beta)
        if conjugate(ell, f) == Poly.monomial(f.field, delta):
            return True, ell
    return True, None


def _conj_cheb_witness(f: Poly, dihedral):
    """(closure_conjugate, sign, in-field ell with ell o f o ell^{-1} = sign*T).

    dihedral is _dihedral_data(f).
    """
    delta = f.degree
    fieldK = f.field
    T = chebyshev(delta, fieldK)
    t, g, w = dihedral
    if delta == 2:
        # f = eps*a*(x+t)^2 - (2*eps + a*t)/a; solve a for each sign
        B = g.coeff(0)
        for eps in (fieldK.one(), -fieldK.one()):
            denom = B + t
            if not denom:
                continue
            a = -2 * eps / denom
            ell = LinearPoly.make(fieldK, a, a * t)
            if conjugate(ell, f) == T.scale(eps):
                return True, eps, ell
        return False, None, None
    if w is None:
        return False, None, None
    if delta % 2:
        # sign forced by the leading equation g_delta = eps * a^(delta-1)
        eps = g.leading() / w ** ((delta - 1) // 2)
        if eps != fieldK.one() and eps != -fieldK.one():
            return False, None, None
        if g.coeff(0) != -t:
            return False, None, None
        for a in nth_roots(w, 2, fieldK):
            ell = LinearPoly.make(fieldK, a, a * t)
            if conjugate(ell, f) == T.scale(eps):
                return True, eps, ell
        return True, eps, None
    # delta even: a is forced in-field for each sign, so closure = in-field
    for eps in (fieldK.one(), -fieldK.one()):
        a = eps * g.leading() / w ** ((delta - 2) // 2)
        if a * a != w:
            continue
        ell = LinearPoly.make(fieldK, a, a * t)
        if conjugate(ell, f) == T.scale(eps):
            return True, eps, ell
    return False, None, None


def classify(f: Poly) -> ShapeReport:
    if f.degree < 2:
        raise RittKitError("classification needs degree >= 2")
    shape = power_shape(f)
    dihedral = _dihedral_data(f)
    pw_closure, pw_ell = _conj_power_witness(f, shape)
    ch_closure, ch_sign, ch_ell = _conj_cheb_witness(f, dihedral)
    hints = []
    if pw_closure and pw_ell is None:
        hints.append("conjugacy to the power map needs a field extension")
    if ch_closure and ch_ell is None:
        hints.append("conjugacy to a Chebyshev form needs a field extension")
    return ShapeReport(
        is_cyclic=shape is not None,
        is_dihedral=f.degree >= 3 and dihedral[2] is not None,
        conj_to_power=pw_ell,
        conj_to_pm_chebyshev=(ch_sign, ch_ell) if ch_ell is not None else None,
        disintegrated=not (pw_closure or ch_closure),
        hints=tuple(hints))


def _scale_polynomial(f: Poly, g: Poly):
    """(G, v): the scales u of inner maps u*x + v(u) that can carry f to g.

    G is the monic gcd in u of g_d * [x^i] f(u*x + v(u)) = g_i * f_d * u^d
    for 1 <= i <= d-2, the equations of L2 o f o (u*x + v(u)) = g with L2
    linear; v is the linear Poly forced by the x^(d-1) coefficient.  G is
    zero when every u passes (d <= 2, or f and g cyclic).
    """
    fieldK = f.field
    d = f.degree
    alpha = g.coeff(d - 1) / (d * g.leading())
    beta = -f.coeff(d - 1) / (d * f.leading())
    coeffs = affine_substitution_coeffs(f, alpha, beta)
    G = Poly(fieldK, ())
    for i in range(1, d - 1):
        G = poly_gcd(G, coeffs[i].scale(g.leading()) - Poly.monomial(
            fieldK, d, g.coeff(i) * f.leading()))
    return G, Poly.make(fieldK, [beta, alpha])


def equivalence_witness(f: Poly, g: Poly):
    """(L1, L2) with L2 o f o L1 = g, or None."""
    if f.degree != g.degree or f.degree < 1:
        raise RittKitError("equivalence needs equal degrees >= 1")
    fieldK = f.field
    if f.degree == 1:
        return (LinearPoly.identity(fieldK),
                LinearPoly.from_poly(left_factor_solve(g, f)))
    G, v = _scale_polynomial(f, g)
    one = fieldK.one()
    for u in (one, -one) if G.is_zero() else in_field_roots(G):
        if not u:
            continue
        L1 = LinearPoly.make(fieldK, u, v.evaluate(u))
        L2 = left_factor_solve(g, compose(f, L1.to_poly()))
        if L2 is not None:
            return L1, LinearPoly.from_poly(L2)
    return None


def power_normal_form(A: Poly) -> PowerNormalForm | None:
    """ell1 o A o ell2 = x^s P(x^n) with n the order of the symmetry group."""
    if A.degree < 2:
        raise RittKitError("normal form needs degree >= 2")
    from .symmetry import gamma_group
    grp = gamma_group(A)
    if grp.kind == "Infinite":
        return None
    fieldK = A.field
    n = len(grp.elements)
    if n == 1:
        ell2 = LinearPoly.identity(fieldK)
        tilde = A
    else:
        gen = grp.generator
        c = gen.b / (fieldK.one() - gen.a)
        ell2 = LinearPoly.make(fieldK, 1, c)
        tilde = compose(A, ell2.to_poly())
    a0 = tilde.constant_term()
    C = tilde - a0
    ell1 = LinearPoly.make(fieldK, 1, -a0)
    s = C.multiplicity_at_zero()
    support = [i for i, c in enumerate(C.coeffs) if c]
    if any((i - s) % n for i in support):
        raise RittKitError("support pattern disagrees with the symmetry order")
    P = Poly.make(fieldK, [C.coeff(s + n * k)
                           for k in range((C.degree - s) // n + 1)])
    nf = PowerNormalForm(ell1, ell2, s, n, P)
    if not nf.verify(A):
        raise RittKitError("normal form verification failed")
    return nf
