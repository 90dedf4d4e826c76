"""Shape classification of polynomials.

Every linear-map solve here reduces to the roots of one scale polynomial.
Once f is centred (no x^(d-1) term), a conjugacy to the centred x^d, T_d
or -T_d is a pure scaling a*x, and `_conj_scales` is the gcd of its
coefficient equations in a: f is conjugate over the algebraic closure iff
the gcd has a root, and the witness is its largest in-field root,
verified before it is returned.  `_scale_polynomial` does the same for
L2 o f o L1 = g.  Cyclic/dihedral status is a closure-level coefficient
test on the same centred form.  A missing in-field witness is surfaced as
a hint instead of an error so that classification always completes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivar import affine_substitution_coeffs
from .decompose import left_factor_solve
from .errors import RittKitError
from .field import scalar_sort_key
from .poly import LinearPoly, Poly, chebyshev, compose, conjugate, poly_gcd
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


def _centred(f: Poly):
    """(s, F) with F = f(x - s) + s free of x^(deg f - 1)."""
    s = f.coeff(f.degree - 1) / (f.degree * f.leading())
    return s, conjugate(LinearPoly.make(f.field, 1, s), f) if s else f


def _conj_scales(F: Poly, H: Poly) -> Poly:
    """The monic gcd in a of the equations of (a*x) o F o (x/a) = H.

    F and H are centred of one degree; the equations are F_i = H_i*a^(i-1)
    for i >= 1 and F_0*a = H_0.  A linear map between centred polynomials
    has no translation part, so the roots are exactly the scales of the
    conjugacies, and F ~ H over the closure iff the gcd is not constant.
    """
    fieldK = F.field
    G = Poly(fieldK, ())
    for i in range(F.degree + 1):
        fi, hi = F.coeff(i), H.coeff(i)
        if not (fi or hi):
            continue
        G = poly_gcd(G, Poly.make(fieldK, [-hi, fi]) if i == 0
                     else Poly.monomial(fieldK, i - 1, hi) - fi)
        if G.degree == 0:
            break
    return G


def _conj_witness(f: Poly, s, F: Poly, H: Poly):
    """(closure, ell): f ~ H over the closure, and a verified in-field ell.

    (s, F) is _centred(f); ell = a*(x + s) for the largest in-field root a
    of _conj_scales(F, H), or None when it has no root in the field.
    """
    G = _conj_scales(F, H)
    roots = in_field_roots(G) if G.degree >= 1 else []
    if not roots:
        return G.degree >= 1, None
    a = max(roots, key=scalar_sort_key)
    ell = LinearPoly.make(f.field, a, a * s)
    if conjugate(ell, f) != H:
        raise RittKitError("conjugacy witness failed verification")
    return True, ell


def classify(f: Poly) -> ShapeReport:
    if f.degree < 2:
        raise RittKitError("classification needs degree >= 2")
    fieldK, d = f.field, f.degree
    s, F = _centred(f)
    T = chebyshev(d, fieldK)
    pw_closure, pw_ell = _conj_witness(f, s, F, Poly.monomial(fieldK, d))
    ch_closure, ch_ell = _conj_witness(f, s, F, T)
    sign = fieldK.one()
    if ch_ell is None:
        neg_closure, ch_ell = _conj_witness(f, s, F, T.scale(-1))
        ch_closure, sign = ch_closure or neg_closure, -sign
    # F = L2 o T o (u*x) over the closure: F_i = F_d*T_i*r^((d-i)/2), r = u^-2
    r = F.coeff(d - 2) / (-d * F.leading())
    hints = []
    if pw_closure and pw_ell is None:
        hints.append("conjugacy to the power map needs a field extension")
    if ch_closure and ch_ell is None:
        hints.append("conjugacy to a Chebyshev form needs a field extension")
    return ShapeReport(
        is_cyclic=not any(F.coeffs[1:d]),
        is_dihedral=d >= 3 and bool(r) and all(
            F.coeff(i) == F.leading() * T.coeff(i) * r ** ((d - i) // 2)
            for i in range(1, d)),
        conj_to_power=pw_ell,
        conj_to_pm_chebyshev=(sign, ch_ell) if ch_ell is not None else None,
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
