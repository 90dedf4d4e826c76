"""Shape classification of polynomials.

Every linear-map solve here reads the centred forms F = f(x - s) + s of
`poly.centred`, free of x^(d-1): the inner linear map between them has
no translation part, so each solve is a gcd u^k*(u^n - r) of binomials
in one scale, taken on exponents (`_binomial_gcd`), whose nonzero roots
are the n-th roots of r.  A conjugacy to the centred x^d, T_d or -T_d
is a scaling a*x; the witness is the largest such root
(`_conj_witness`).  `_scale_polynomial` does the same for L2 o f o L1 =
g, and any nonzero root gives both maps in closed form (`_scale_maps`).
Cyclic/dihedral status is a coefficient test on the same centred form.
A missing in-field witness is a hint, so classification completes.
"""

from __future__ import annotations

from .errors import RittKitError
from .field import nth_roots, scalar_sort_key
from .poly import LinearPoly, Poly, centred, chebyshev
from .record import Record


class ShapeReport(Record):
    is_cyclic: bool
    is_dihedral: bool
    conj_to_power: LinearPoly | None
    conj_to_pm_chebyshev: tuple | None  # (sign, LinearPoly)
    disintegrated: bool
    hints: tuple = ()


def _binomial_gcd(fieldK, binomials) -> Poly:
    """The monic gcd u^k*(u^n - r) in u of the binomials c*u^i - e*u^j,
    (c, i, e, j) in binomials; zero when every binomial vanishes.

    A nonzero c*u^i - e*u^j is a unit times u^min(i,j)*(u^|i-j| - r), or
    a monomial when c*e = 0 or i = j, which sets n = 0; u divides no
    u^n - r with r != 0.  For a = t*b + s', u^a - r = q^t*u^s' - r mod
    u^b - q, so gcd(u^a - r, u^b - q) = gcd(u^b - q, u^s' - r/q^t), and
    at s' = 0 it is u^b - q if q^t = r, else 1: Euclid on exponents.
    """
    k, n, r = None, 0, 0
    for c, i, e, j in binomials:
        if not (c or e) or i == j and c == e:
            continue
        if c and e:
            low, b, q = min(i, j), abs(i - j), e / c if i > j else c / e
        else:
            low, b, q = i if c else j, 0, 0
        if k is None:                   # it meets itself below: no change
            k, n, r = low, b, q
        k, n = min(k, low), n if b else 0
        while n and b:
            t, rem = divmod(n, b)
            qt = q ** t
            if rem:
                n, r, b, q = b, q, rem, r / qt
            else:
                n, r, b = (b, q, 0) if qt == r else (0, 0, 0)
        if not (k or n):
            break
    if k is None:
        return Poly(fieldK, ())
    return Poly.make(fieldK, [0] * k + [-r] * (n > 0) + [0] * (n - 1) + [1])


def _nonzero_roots(G: Poly) -> list:
    """The n-th roots of r in the field, G = u^k*(u^n - r) != 0: those of
    the form q*w, all that `roots.in_field_roots` finds of a binomial, so
    over Q(zeta_m) the roots missed are the ones `nth_roots` misses."""
    k = G.multiplicity_at_zero()
    n = G.degree - k
    return nth_roots(-G.coeff(k), n, G.field) if n else []


def _conj_witness(f: Poly, s, F: Poly, H: Poly):
    """(closure, ell): f ~ H over the closure, and an in-field ell.

    (s, F) is centred(f), H centred of the same degree d.  The scales a of
    the conjugacies (a*x) o F o (x/a) = H are the roots of the gcd G of
    F_i = H_i*a^(i-1), i >= 1, and F_0*a = H_0: f ~ H over the closure
    iff G is not constant.  ell = a*(x + s) for the largest in-field root
    a, or None.  ell o f o ell^-1 has coefficients F_i*a^(1-i), so it is H
    at every root of G, which divides each equation (a != 0 by F_d).
    """
    G = _binomial_gcd(F.field, [(F.coeff(0), 1, H.coeff(0), 0)] + [
        (H.coeff(i), i - 1, F.coeff(i), 0) for i in range(1, F.degree + 1)])
    roots = _nonzero_roots(G)
    if not roots:
        return G.degree >= 1, None
    a = max(roots, key=scalar_sort_key)
    return True, LinearPoly.make(f.field, a, a * s)


def classify(f: Poly) -> ShapeReport:
    if f.degree < 2:
        raise RittKitError("classification needs degree >= 2")
    fieldK, d = f.field, f.degree
    s, F = centred(f)
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


def _scale_polynomial(f: Poly, g: Poly, forms: tuple | None = None):
    """(G, v): the scales u of inner maps u*x + v(u) that can carry f to g.

    With (s, F), (t, H) the centred forms of f and g (`forms`, when the
    caller holds them) and v(u) = t*u - s, L2 o f o (u*x + v(u)) = g
    reads L2' o F o (u*x) = H, whose equations are
    g_d*F_i*u^i = f_d*H_i*u^d for 1 <= i <= d-2.  G is their monic gcd,
    zero when every u passes (d <= 2, or f and g cyclic).
    """
    (s, F), (t, H) = forms or (centred(f), centred(g))
    fd, gd = f.leading(), g.leading()
    G = _binomial_gcd(f.field, [(gd * F.coeff(i), i, fd * H.coeff(i),
                                 f.degree) for i in range(1, f.degree - 1)])
    return G, Poly.make(f.field, [-s, t])


def _scale_maps(centred_f: tuple, centred_g: tuple, u) -> tuple:
    """(L1, M) with f o L1 = M o g, for the centred forms (s, F) of f and
    (t, H) of g and u a nonzero root of G of `_scale_polynomial` (any u
    when G is zero).

    L1 = u*x + t*u - s maps -t to -s.  u satisfies every equation of G,
    and F_(d-1) = H_(d-1) = 0, so F(u*x) - F_0 = c*(H - H_0) with
    c = f_d*u^d/g_d.  As f o L1 = F(u*(x + t)) - s and g = H(x + t) - t,
    f o L1 = f(-s) + c*(g - g(-t)): M = f(-s) + c*(y - g(-t)), with
    f(-s) = F_0 - s and g(-t) = H_0 - t read off the centred forms, so
    neither f nor g is evaluated or composed.
    """
    (s, F), (t, H) = centred_f, centred_g
    c = F.leading() * u ** F.degree / H.leading()
    return (LinearPoly.make(F.field, u, t * u - s),
            LinearPoly.make(F.field, c, F.constant_term() - s
                            - c * (H.constant_term() - t)))


def equivalence_witness(f: Poly, g: Poly):
    """(L1, L2) with L2 o f o L1 = g, or None: L2 = g o f^-1 in degree 1.

    Above it any nonzero root u of G (u = 1 when G is zero) gives L1 and
    L2 = M^-1 by _scale_maps, from the centred forms that G is read off:
    None means G has no nonzero in-field root.
    """
    if f.degree != g.degree or f.degree < 1:
        raise RittKitError("equivalence needs equal degrees >= 1")
    if f.degree == 1:
        return (LinearPoly.identity(f.field), LinearPoly.from_poly(g).after(
            LinearPoly.from_poly(f).inverse()))
    forms = centred(f), centred(g)
    G = _scale_polynomial(f, g, forms)[0]
    roots = [f.field.one()] if G.is_zero() else _nonzero_roots(G)
    if not roots:
        return None
    L1, M = _scale_maps(*forms, min(roots, key=scalar_sort_key))
    return L1, M.inverse()
