"""In-field root finding for univariate polynomials.

Over Q the search is complete (roots mod a prime, lifted by Hensel).  Over
Q(zeta_m) every root of the form (rational)*(root of unity) is found; the
polynomial is deflated by them, and a linear or quadratic remainder goes
to the root formula, whose square root is again only sought in that form.
Other roots are missed: (x - (1+z))(x - (2+3z)) over Q(zeta_5) gets none.
"""

from __future__ import annotations

from fractions import Fraction

from . import field as _field
from .field import (CYCLOTOMIC, QQ, _next_prime, int_horner, int_vector,
                    nth_roots, roots_of_unity, scalar_sort_key)
from .poly import Poly, deflate, poly_gcd, primitive, squarefree_part

# The primality test lives in field, beside the splitting primes of the
# modular gcd; these names keep it importable from here.
is_prime = _field.is_prime
PRIME_TEST_BOUND = _field.PRIME_TEST_BOUND


def rational_roots(coeffs) -> list:
    """All rational roots of a polynomial given by ascending Fraction coeffs.

    The squarefree primitive part F, of degree n and leading coefficient a,
    becomes the monic integer G(x) = a^(n-1) F(x/a), whose rational roots
    are the integers a*r.  Each integer root reduces to a root of G mod p,
    for the first prime p not dividing a at which every root is simple;
    each such root lifts uniquely by Hensel's lemma past twice the Cauchy
    bound, and the lifts that are exact roots of G are kept.
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    roots = []
    while len(cs) > 1 and not cs[0]:
        roots = [Fraction(0)]
        cs = cs[1:]
    if len(cs) <= 1:
        return roots
    F = primitive(int_vector(squarefree_part(Poly.make(QQ, cs)).coeffs)[0])
    n, a = len(F) - 1, F[-1]
    G = [c * a ** (n - 1 - i) for i, c in enumerate(F[:n])] + [1]
    dG = [i * c for i, c in enumerate(G)][1:]
    bound = 2 * (1 + max(map(abs, G[:n])))
    p = 2
    while True:
        if a % p:
            found = [r for r in range(p) if not int_horner(G, r, p)]
            if all(int_horner(dG, r, p) for r in found):
                break
        p = _next_prime(p)
    for r in found:
        mod = p
        while mod <= bound:
            mod *= mod
            r = (r - int_horner(G, r, mod)
                 * pow(int_horner(dG, r, mod), -1, mod)) % mod
        z = r - mod if 2 * r > mod else r
        if not int_horner(G, z):
            roots.append(Fraction(z, a))
    return sorted(roots)


def _quadratic_roots(F: Poly) -> list:
    c, b, a = F.coeff(0), F.coeff(1), F.coeff(2)
    disc = b * b - 4 * a * c
    out = []
    for r in nth_roots(disc, 2, F.field):
        for sign in (1, -1):
            root = (-b + sign * r) / (2 * a)
            if root not in out:
                out.append(root)
    return [r for r in out if not F.evaluate(r)]


def _unity_scaled_roots(F: Poly) -> list:
    """Roots q*w with q rational, w a root of unity of the ambient field."""
    field = F.field
    d = field.degree
    found = []
    for w in roots_of_unity(field):
        # Coordinates of F(w*t) are rational polynomials sharing any
        # rational root t0; their gcd pins the candidates down.
        coords = [[Fraction(0)] * len(F.coeffs) for _ in range(d)]
        wp = field.one()
        for i, c in enumerate(F.coeffs):
            for j, cj in enumerate((field.coerce(c) * wp).coeffs):
                coords[j][i] = cj
            wp = wp * w
        g = Poly(QQ, ())
        for vec in coords:
            g = poly_gcd(g, Poly.make(QQ, vec))
            if g.degree == 0:
                break
        if g.degree < 1:
            continue
        for q in rational_roots(g.coeffs):
            if q == 0:
                continue
            root = w * q
            if root not in found and not F.evaluate(root):
                found.append(root)
    return found


def in_field_roots(F: Poly) -> list:
    """All roots of F found in F's own field (complete over Q).

    Every path finds or tests its roots exactly (the formulas solve a
    deflated factor of F), so only repeats are dropped.
    """
    field = F.field
    if F.is_zero():
        raise ValueError("zero polynomial has every root")
    if F.degree < 1:
        return []
    roots = []
    m = F.multiplicity_at_zero()
    if m:
        roots.append(field.zero())
        F = Poly(field, F.coeffs[m:])
    if field.kind != CYCLOTOMIC:
        roots.extend(field.coerce(r) for r in rational_roots(F.coeffs))
    else:
        # the search is complete for roots q*w; what it leaves is left
        # to the formulas of degree 1 and 2
        found = _unity_scaled_roots(F) if F.degree > 1 else []
        roots.extend(found)
        for r in found:
            F = deflate(F, r)
        if F.degree == 1:
            roots.append(-F.coeff(0) / F.coeff(1))
        elif F.degree == 2:
            roots.extend(_quadratic_roots(F))
    return sorted(dict.fromkeys(roots), key=scalar_sort_key)
