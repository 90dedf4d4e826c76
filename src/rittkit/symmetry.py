"""Linear symmetry groups of polynomials and iterate alignment.

Gamma(A) collects the linear ell with A o ell = L o A for some linear L;
M(f^inf) collects the linear maps commuting with some iterate of f.
Both read their scales off one exponent gcd g of the centred map: they
are the g-th roots of unity of the field (`_unity_scales`).  For Gamma(A)
ell = a*x + v(a) and L = A(-s) + a^d*(y - A(-s)) cost no composition
(`conjugacy._scale_maps`).  `power_normal_form` straightens A to
x^s P(x^n) with n = |Gamma(A)|, read off the same centred form.
`m_infinity` and `common_commuting_iterate` build no iterate: they walk
the scales a -> a^d of the centred map (`_scale_cycles`).
"""

from __future__ import annotations

from math import gcd, lcm

from .conjugacy import _scale_maps
from .decompose import equal_degree_linear
from .errors import HypothesisViolationError, RittKitError
from .field import roots_of_unity, scalar_sort_key
from .poly import LinearPoly, Poly, centred, compose, power_shape
from .record import Record

INFINITE = "Infinite"
FINITE = "Finite"


class LinearGroup(Record):
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


def _unity_scales(F: Poly, first: int) -> tuple:
    """(g, [a in roots_of_unity(K) with a^g = 1]) for g the gcd of the
    d - i with F_i != 0 and i >= first; g = 0 lets every a pass."""
    d = F.degree
    g = gcd(*(d - i for i, c in enumerate(F.coeffs) if c and i >= first))
    return g, [a for a in roots_of_unity(F.field) if a ** g == 1]


def gamma_group(A: Poly) -> LinearGroup:
    """Gamma(A): linear ell with A o ell = L o A, over the ambient field.

    With (s, F) = centred(A), ell = a*x + s*(a - 1) turns the equation
    into F(a*x) = c*F + e, whose x^i terms for i >= 1 read a^(d-i) = 1
    where F_i != 0 (c = a^d), and each such a passes, with ell and L from
    `_scale_maps`: the scales are mu_g in K (`_unity_scales` from 1), and
    g = 0, A cyclic, gives an infinite group.  mu_g in K has order < g
    unless it is all of mu_g, so the rest, when not empty, holds a
    primitive g-th root: the extension_hint is g then, and None if not.
    """
    if A.degree < 2:
        raise RittKitError("symmetry group needs degree >= 2")
    s, F = centred(A)
    g, scales = _unity_scales(F, 1)
    if not g:
        return LinearGroup(kind=INFINITE)
    pairs = sorted((_scale_maps((s, F), (s, F), a) for a in scales),
                   key=lambda p: (not p[0].is_identity(),   # identity first
                                  scalar_sort_key(p[0].a)))
    elements, companions = zip(*pairs)
    gen = _find_generator(elements)
    if gen is None:
        raise RuntimeError("symmetry group is not cyclic (unexpected)")
    return LinearGroup(kind=FINITE, elements=elements, companions=companions,
                       generator=gen,
                       extension_hint=g if len(scales) < g else None)


class PowerNormalForm(Record):
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


def power_normal_form(A: Poly) -> PowerNormalForm | None:
    """ell1 o A o ell2 = x^s P(x^n) with n the order of the symmetry group.

    With (t, F) = centred(A), n = |Gamma(A)| is the number of scales of
    `_unity_scales(F, 1)` (None when Gamma(A) is infinite).  Every element
    a*x + t*(a - 1) of Gamma(A) fixes -t, so for n > 1 ell2 = x - t and
    A o ell2 = F - t.  The scales are the roots of unity of the field with
    a^g = 1, a cyclic group whose order n divides g, and g divides d - i
    wherever F_i != 0 (i >= 1): so every exponent of F - F_0 is s mod n,
    s its least one, and ell1 o A o ell2 = x^s P(x^n) for ell1 = x - a0,
    a0 = A(ell2(0)), and P read off every n-th coefficient from s.
    """
    if A.degree < 2:
        raise RittKitError("normal form needs degree >= 2")
    t, F = centred(A)
    g, scales = _unity_scales(F, 1)
    if not g:
        return None
    fieldK = A.field
    n = len(scales)
    if n == 1:
        ell2 = LinearPoly.identity(fieldK)
        tilde = A
    else:
        ell2 = LinearPoly.make(fieldK, 1, -t)
        tilde = F - t
    a0 = tilde.constant_term()
    C = tilde - a0
    ell1 = LinearPoly.make(fieldK, 1, -a0)
    s = C.multiplicity_at_zero()
    P = Poly.make(fieldK, [C.coeff(s + n * k)
                           for k in range((C.degree - s) // n + 1)])
    return PowerNormalForm(ell1, ell2, s, n, P)


def _scale_cycles(f: Poly, iter_bound: int) -> tuple:
    """(s, {a: k}): a*x + s*(a - 1) commutes with f^(o k) first at k, for
    each such map with k <= iter_bound; (s, C) = centred(f), d = deg f.

    f^(o k) = (x - s) o C^(o k) o (x + s), and C^(o k) is centred, so the
    maps commuting with it are scalings a*x, with a^(d^k - 1) = 1 from the
    top coefficient: a is a root of unity.  Let S be the roots of unity b
    of the field with C(b*x) = b^d*C(x).  If a*x commutes with C^(o k),
    C^(o k-1) o a*x and C^(o k-1) are right factors of one degree of
    C^(o k) o a*x, so they differ by a linear map L on the left (right
    factors of one degree are unique up to that; Kozen and Landau 1989),
    and right cancellation of C^(o k-1) gives C o L = a*x o C.  C is
    centred, so L = b*x with b in S and b^d = a.  Peeling k times, a, a^d,
    ..., a^(d^(k-1)) lie in S and a^(d^k) = a; conversely such a walk
    composes to C^(o k) o a*x = a*x o C^(o k).  S is mu_g in K, for g the
    gcd of the d - i with C_i != 0 (`_unity_scales` from 0), so the walk
    a -> a^d never leaves it, the k that work are the multiples of the
    length of the cycle through a, and the least k is that length.
    """
    if f.degree < 2:
        raise RittKitError("m_infinity needs degree >= 2")
    if iter_bound < 1:
        raise RittKitError("iter_bound must be >= 1")
    s, C = centred(f)
    d, S = C.degree, _unity_scales(C, 0)[1]
    cycles = {}
    for a in S:                         # no cycle inside S is longer than S
        b, k = a ** d, 1
        while b != a and k < min(iter_bound, len(S)):
            b, k = b ** d, k + 1
        if b == a:
            cycles[a] = k
    return s, cycles


def m_infinity(f: Poly, iter_bound: int | None = None) -> LinearGroup:
    """Linear maps commuting with f^(o k) for some k <= iter_bound.

    The maps are a*x + s*(a - 1) for the scales a of `_scale_cycles`, and
    iter_bound filters their cycle lengths, each the least k for its map;
    no iterate of f is built.  The result is marked stable_at =
    ceil(bound/2) when no cycle is longer than that.
    """
    if iter_bound is None:
        iter_bound = f.degree
    s, cycles = _scale_cycles(f, iter_bound)
    elements = sorted((LinearPoly.make(f.field, a, s * (a - 1))
                       for a in cycles), key=lambda e: scalar_sort_key(e.a))
    elements.sort(key=lambda e: not e.is_identity())
    half = (iter_bound + 1) // 2
    stable = half if all(k <= half for k in cycles.values()) else None
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
    """Smallest n <= bound such that f^(o n) commutes with all of M(f^inf).

    An element of m_infinity(f, bound) commutes with f^(o n) exactly for
    the multiples n of its cycle length (`_scale_cycles`), so the answer is
    the lcm of those lengths, or None when it exceeds bound.
    """
    if bound is None:
        bound = f.degree
    n = lcm(*_scale_cycles(f, bound)[1].values())
    return n if n <= bound else None


def align_iterates(f: Poly, g: Poly, L: LinearPoly, n: int):
    """(ell, N) with f^(o N) = (ell o g o ell^{-1})^(o N), N <= n.

    Peels f^(o n) = L o g^(o n) one factor at a time, producing linear maps
    L_0 ... L_n with f = L_{i+1} o g o L_i^{-1}; a collision L_i = L_j
    yields the conjugating ell = L_i with N = j - i.

    Each peel of f^(o k) = M o g^(o k) by `equal_degree_linear` checks
    f = M o g o ell and leaves f^(o k-1) = ell^{-1} o g^(o k-1); the last
    peels x by x, so L_0 = x, and f^(o N) = L_j o g^(o N) o L_i^{-1}.
    """
    if f.degree != g.degree or f.degree < 2:
        raise HypothesisViolationError("f and g need equal degree >= 2")
    if n < 1:
        raise HypothesisViolationError("n must be >= 1")
    if power_shape(f) is not None or power_shape(g) is not None:
        raise HypothesisViolationError("alignment needs non-cyclic inputs")
    fk, gk = [Poly.x(f.field)], [Poly.x(f.field)]   # f^(o k), g^(o k)
    for _ in range(n):
        fk.append(compose(f, fk[-1]))
        gk.append(compose(g, gk[-1]))
    if fk[n] != compose(L.to_poly(), gk[n]):
        raise HypothesisViolationError("f^(o n) != L o g^(o n)")
    Ms = [L]
    for k in range(n, 0, -1):
        ell = equal_degree_linear(f, compose(Ms[-1].to_poly(), g),
                                  fk[k - 1], gk[k - 1])
        if ell is None:
            raise RittKitError(
                "no in-field linear relating the equal-degree factors")
        Ms.append(ell.inverse())
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
    return ell, N
