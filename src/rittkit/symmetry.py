"""Linear symmetry groups of polynomials and iterate alignment.

Gamma(A) collects the linear ell with A o ell = L o A for some linear L;
M(f^inf) collects the linear maps commuting with some iterate of f.
Both read the scales of ell as in-field roots of one gcd of binomials
from `conjugacy`, and the translation part of ell is a forced linear
function of its scale.  `m_infinity` centres f once and iterates the
centred map, whose iterates stay centred.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjugacy import _conj_scales, _scale_polynomial
from .decompose import equal_degree_linear, left_factor_solve
from .errors import HypothesisViolationError, ResourceCapError, RittKitError
from .field import scalar_sort_key
from .poly import (LinearPoly, Poly, centred, compose, conjugate, deflate,
                   iterate, poly_divmod, power_shape)
from .roots import in_field_roots

INFINITE = "Infinite"
FINITE = "Finite"


@dataclass(frozen=True)
class LinearGroup:
    kind: str
    elements: tuple = ()          # LinearPoly, identity first
    companions: tuple = ()        # matching L with A o ell = L o A
    generator: LinearPoly | None = None
    extension_hint: int | None = None  # cyclotomic order that may add elements
    stable_at: int | None = None       # m_infinity bound stability marker

    def order(self) -> int | None:
        return len(self.elements) if self.kind == FINITE else None


def _find_generator(elements) -> LinearPoly | None:
    """A single element whose composition powers enumerate the group."""
    n = len(elements)
    pool = set((e.a, e.b) for e in elements)
    for cand in elements:
        seen = set()
        cur = cand
        for _ in range(n):
            seen.add((cur.a, cur.b))
            cur = cand.after(cur)
        if seen == pool:
            return cand
    return None


def _extension_hint_order(residual: Poly, cap: int) -> int | None:
    """Smallest m with residual dividing a^m - 1, if any up to cap."""
    if residual.degree < 1:
        return None
    fieldK = residual.field
    for m in range(1, cap + 1):
        probe = Poly.monomial(fieldK, m) - Poly.constant(fieldK, 1)
        if poly_divmod(probe, residual)[1].is_zero():
            return m
    return None


def gamma_group(A: Poly) -> LinearGroup:
    """Gamma(A): linear ell with A o ell = L o A, over the ambient field.

    Infinite exactly when A is cyclic.  Elements found only in an
    extension are reported through extension_hint, not raised.
    """
    if A.degree < 2:
        raise RittKitError("symmetry group needs degree >= 2")
    fieldK = A.field
    d = A.degree
    G, v = _scale_polynomial(A, A)
    if G.is_zero():                     # A is cyclic: every scale passes
        return LinearGroup(kind=INFINITE)
    elements, companions = [], []
    residual = Poly(fieldK, G.coeffs[G.multiplicity_at_zero():])
    for a in in_field_roots(residual):
        ell = LinearPoly.make(fieldK, a, v.evaluate(a))
        L = left_factor_solve(compose(A, ell.to_poly()), A)
        if L is None:
            continue
        elements.append(ell)
        companions.append(LinearPoly.from_poly(L))
        residual = deflate(residual, a)
    order = sorted(range(len(elements)),
                   key=lambda i: scalar_sort_key(elements[i].a))
    # identity first
    order.sort(key=lambda i: not elements[i].is_identity())
    elements = [elements[i] for i in order]
    companions = [companions[i] for i in order]
    gen = _find_generator(elements)
    if gen is None:
        raise RittKitError("symmetry group is not cyclic (unexpected)")
    return LinearGroup(kind=FINITE, elements=tuple(elements),
                       companions=tuple(companions), generator=gen,
                       extension_hint=_extension_hint_order(residual, 2 * d))


def m_infinity(f: Poly, iter_bound: int | None = None) -> LinearGroup:
    """Linear maps commuting with f^(o k) for some k <= iter_bound.

    The result is marked stable_at = ceil(bound/2) when the second half of
    the bound range contributed nothing new.
    """
    if f.degree < 2:
        raise RittKitError("m_infinity needs degree >= 2")
    if iter_bound is None:
        iter_bound = f.degree
    if iter_bound < 1:
        raise RittKitError("iter_bound must be >= 1")
    # f^(o k) = (x - s) o C^(o k) o (x + s), so the maps commuting with it
    # are a*x + s*(a - 1) for the roots a of _conj_scales(C^(o k), C^(o k))
    s, C = centred(f)
    first_k = {}                        # (a, b) -> first k with a*x + b
    Ck = Poly.x(f.field)
    for k in range(1, iter_bound + 1):
        try:
            Ck = compose(C, Ck)
        except ResourceCapError:
            break
        for a in in_field_roots(_conj_scales(Ck, Ck)):
            first_k.setdefault((a, s * (a - 1)), k)
    elements = sorted((LinearPoly.make(f.field, a, b) for a, b in first_k),
                      key=lambda e: scalar_sort_key(e.a))
    elements.sort(key=lambda e: not e.is_identity())
    half = (iter_bound + 1) // 2
    stable = half if all(k <= half for k in first_k.values()) else None
    gen = _find_generator(elements)
    return LinearGroup(kind=FINITE, elements=tuple(elements),
                       companions=tuple(elements), generator=gen,
                       stable_at=stable)


def commutes_with_iterate(f: Poly, g: Poly, bound: int) -> int | None:
    """Smallest n <= bound with g o f^(o n) = f^(o n) o g."""
    if f.degree < 2 or g.degree < 1:
        raise RittKitError("need deg f >= 2 and deg g >= 1")
    F = Poly.x(f.field)
    for n in range(1, bound + 1):
        F = compose(f, F)
        if compose(g, F) == compose(F, g):
            return n
    return None


def common_commuting_iterate(f: Poly, bound: int | None = None) -> int | None:
    """Smallest n <= bound such that f^(o n) commutes with all of M(f^inf)."""
    if bound is None:
        bound = f.degree
    group = m_infinity(f, bound)
    F = Poly.x(f.field)
    for n in range(1, bound + 1):
        F = compose(f, F)
        if all(compose(F, ell.to_poly()) == compose(ell.to_poly(), F)
               for ell in group.elements):
            return n
    return None


def align_iterates(f: Poly, g: Poly, L: LinearPoly, n: int):
    """(ell, N) with f^(o N) = (ell o g o ell^{-1})^(o N), N <= n.

    Peels f^(o n) = L o g^(o n) one factor at a time, producing linear maps
    L_0 ... L_n with f = L_{i+1} o g o L_i^{-1}; a collision L_i = L_j
    yields the conjugating ell = L_i with N = j - i.
    """
    if f.degree != g.degree or f.degree < 2:
        raise HypothesisViolationError("f and g need equal degree >= 2")
    if n < 1:
        raise HypothesisViolationError("n must be >= 1")
    if power_shape(f) is not None or power_shape(g) is not None:
        raise HypothesisViolationError("alignment needs non-cyclic inputs")
    fieldK = f.field
    if iterate(f, n) != compose(L.to_poly(), iterate(g, n)):
        raise HypothesisViolationError("f^(o n) != L o g^(o n)")
    Ms = [L]
    for k in range(n, 0, -1):
        a = f
        b = iterate(f, k - 1)
        c = compose(Ms[-1].to_poly(), g)
        d = iterate(g, k - 1)
        ell = equal_degree_linear(a, c, b, d)
        if ell is None:
            raise RittKitError(
                "no in-field linear relating the equal-degree factors")
        Ms.append(ell.inverse())
    if not Ms[-1].is_identity():
        raise RittKitError("peeling did not terminate at the identity")
    Ls = [Ms[n - i] for i in range(n + 1)]
    best = None
    for j in range(1, n + 1):
        for i in range(j):
            if Ls[i].a == Ls[j].a and Ls[i].b == Ls[j].b:
                if best is None or (j - i, i) < best[:2]:
                    best = (j - i, i, Ls[i])
    if best is None:
        raise RittKitError("no collision among the peeled linear maps")
    N, _, ell = best
    if iterate(f, N) != iterate(conjugate(ell, g), N):
        raise RittKitError("alignment certificate failed verification")
    return ell, N
