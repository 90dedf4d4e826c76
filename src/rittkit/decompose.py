"""Functional decomposition of polynomials.

Right/left factor solvers, complete decomposition chains, the
gcd-degree common-factor refinement for a o b = c o d, and the
splitting of x^s P(x)^n compositions.  Right factors are read off one
power-series root of F's top coefficients (poly.series_root), left
factors off the h-adic digits of F (field.dense_digits).  A full
composition verifies each right factor; the digits are their own proof.
Over Q both kernels run on integers: the root by one integer recurrence
with a proven denominator, the digits by one chain of integer
pseudo-divisions over one running denominator.
The Engstrom refinement and the equal-degree linear map need only
normalized right factors and left factors, which Engstrom's theorem
and the uniqueness of normalized right factors put in the field: they
solve for no leading coefficient and ask for no field extension.
"""

from __future__ import annotations

from math import gcd

from .errors import (FieldExtensionRequiredError, HypothesisViolationError,
                     ResourceCapError, RittKitError)
from .field import dense_digits, nth_roots, scalar_sort_key
from .poly import (LinearPoly, Poly, _compose_vec, _same, _top_root, _vector,
                   compose, power_form)
from .record import Record

DECOMP_DEGREE_CAP = 64


def _lead_roots(lead, n: int, field, message: str) -> list:
    """The in-field roots a of a^n = lead; raises if there are none."""
    roots = nth_roots(lead, n, field)
    if not roots:
        raise FieldExtensionRequiredError(message, equation=f"t^{n} = {lead}")
    return roots


def right_factor_solve(F: Poly, g: Poly) -> list:
    """All h in the current field with F = g o h.

    The top e+1 coefficients of g o h are those of g_m*(h + c)^m with
    c = g_(m-1)/(m*g_m), so each lead a with a^m = lc(F)/g_m gives the one
    candidate h = a*rev(P) - c, P the monic m-th root series of F's top.
    The check g o h == F composes on integer vectors over Q
    (`poly._compose_vec`) and compares the two (integers, denominator)
    pairs by cross-multiplication: exact, with no Fraction built.
    """
    if g.degree < 1:
        raise RittKitError("left factor must be nonconstant")
    if F.degree < 1 or F.degree % g.degree:
        raise RittKitError("degree of g does not divide degree of F")
    field = F.field
    m, e = g.degree, F.degree // g.degree
    leads = _lead_roots(F.leading() / g.leading(), m, field,
                        "leading coefficient equation has no in-field root")
    root = Poly.make(field, _top_root(F, m, e + 1)[::-1])
    c = g.coeff(m - 1) / (m * g.leading())
    G, target = _vector(g), _vector(F)
    out = []
    for a in leads:
        cand = root.scale(a) - c
        if _same(_compose_vec(G, _vector(cand)), target) and cand not in out:
            out.append(cand)
    return out


def left_factor_solve(F: Poly, h: Poly) -> Poly | None:
    """The unique g with F = g o h, or None.

    Reads g's coefficients off the h-adic digits of F (von zur Gathen
    1990, field.dense_digits): each remainder of the repeated division by
    h must be constant, so the first one that is not ends the search.
    The digits need no composition check: F = q_1*h + d_0 and q_j =
    q_(j+1)*h + d_j with constant d_j, and after e = deg F / deg h steps
    q_e = d_e != 0 has degree 0, so F = sum d_j*h^j = g o h exactly.
    """
    if h.degree < 1:
        raise RittKitError("right factor must be nonconstant")
    if F.degree < 1 or F.degree % h.degree:
        return None
    F._check(h)
    digits = dense_digits(F.coeffs, h.coeffs)
    if digits is None:
        return None
    return Poly.make(F.field, digits)


def normalized_right_factor(F: Poly, e: int) -> tuple | None:
    """(g, h) with F = g o h, h monic of degree e with h(0) = 0, if any.

    Such an h is unique: its top coefficients are those of the monic
    m-th root of F/lc(F), m = deg F / e, and h(0) = 0 fixes the rest.
    """
    if F.degree < 2 or e < 1 or F.degree % e:
        return None
    root = _top_root(F, F.degree // e, e)
    hp = Poly.make(F.field, [0] + root[::-1])
    g = left_factor_solve(F, hp)
    if g is None:
        return None
    return g, hp


class DecompositionChain(Record):
    factors: tuple  # left-to-right composition equals the target

    def recompose(self) -> Poly:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = compose(out, f)
        return out

    def degree_sequence(self) -> tuple:
        return tuple(f.degree for f in self.factors)

    def verify(self, f: Poly) -> bool:
        """Recompute the claim: a complete, normalized decomposition of f.

        The factors compose to f, each has degree >= 2 and no normalized
        right factor, and every inner factor is monic with h(0) = 0.
        """
        return (self.recompose() == f
                and all(p.degree >= 2 and _is_indecomposable(p)
                        for p in self.factors)
                and all(p.leading() == 1 and not p.constant_term()
                        for p in self.factors[1:]))


def _is_indecomposable(f: Poly) -> bool:
    for e in range(2, f.degree):
        if f.degree % e == 0 and normalized_right_factor(f, e) is not None:
            return False
    return True


def _chain_sort_key(chain: DecompositionChain):
    coeff_key = tuple(tuple(scalar_sort_key(c) for c in f.coeffs)
                      for f in chain.factors)
    return (chain.degree_sequence(), coeff_key)


def complete_decompositions(f: Poly,
                            degree_cap: int = DECOMP_DEGREE_CAP) -> list:
    """All maximal chains of indecomposable factors, canonically normalized.

    Inner (non-leftmost) factors are the monic, zero-constant-term
    representatives of their linear-equivalence classes; the leftmost
    factor absorbs the linear slack, so each shuffle family appears once.

    The chains are read off one table, one `normalized_right_factor`
    call per divisor e of n = deg f: the normalized right factors h_e of
    f (h_1 = x).  Write S for their degrees, 1 and n included.

    * If e' | e are both in S, then h_e = u o h_e' with u normalized.
      In characteristic 0, a o b = c o d gives b and d a common right
      factor w of degree gcd(deg b, deg d) (Engstrom 1941); for
      f = g o h_e = g' o h_e' that is deg w = e', so h_e' = lam o w for
      a linear lam and h_e = v o w = (v o lam^-1) o h_e'.  Comparing
      leading and constant terms of h_e and h_e' shows u monic with
      u(0) = 0, and `left_factor_solve` finds it (so it never fails).
    * Such a u is indecomposable iff no s in S lies strictly between:
      u = a o b with deg a, deg b >= 2 makes b o h_e' a right factor of
      f of degree e' deg b; conversely h_e = v o h_s, h_s = w o h_e' give
      u = v o w by right cancellation.
    * So a complete decomposition f = g o u_k o ... o u_1 with normalized
      inner factors is one maximal chain 1 = e_0 | e_1 | ... | e_k | n in
      S, each step a cover: h_(e_i) = u_i o h_(e_(i-1)) and g is the left
      factor of f at e_k (for k = 0, g = f).  Normalized right factors
      are unique per degree, so each chain arises once.
    """
    if f.degree < 2:
        raise RittKitError("decomposition needs degree >= 2")
    if degree_cap < 1:
        raise RittKitError("degree_cap must be >= 1")
    if f.degree > degree_cap:
        raise ResourceCapError(
            f"degree {f.degree} exceeds decomposition cap {degree_cap}")
    n = f.degree
    left, right = {}, {n: f}  # e -> g and h_e with f = g o h_e
    for e in range(2, n):
        if n % e == 0:
            split = normalized_right_factor(f, e)
            if split:
                left[e], right[e] = split
    degrees = [1, *left, n]

    def step(c: int, e: int) -> Poly:
        """The factor u with h_e = u o h_c, for a cover c | e."""
        if c == 1:
            return right[e]
        if e == n:
            return left[c]
        u = left_factor_solve(right[e], right[c])
        if u is None:
            raise RuntimeError("internal: right factors of f are not "
                               "nested by degree")
        return u

    chains = {1: [()]}  # e -> factor tuples composing to h_e
    for e in degrees[1:]:
        below = [c for c in degrees if c < e and e % c == 0]
        chains[e] = [(step(c, e),) + tail for c in below
                     if not any(s % c == 0 and e % s == 0 and c < s
                                for s in below)
                     for tail in chains[c]]
    out = [DecompositionChain(factors) for factors in chains[n]]
    out.sort(key=_chain_sort_key)
    return out


class EngstromCertificate(Record):
    g: Poly
    h: Poly
    a_hat: Poly
    b_hat: Poly
    c_hat: Poly
    d_hat: Poly
    ell: LinearPoly | None  # only when deg a = deg c

    def verify(self, a: Poly, b: Poly, c: Poly, d: Poly) -> bool:
        checks = [
            compose(self.g, self.a_hat) == a,
            compose(self.g, self.c_hat) == c,
            compose(self.b_hat, self.h) == b,
            compose(self.d_hat, self.h) == d,
            compose(self.a_hat, self.b_hat) == compose(self.c_hat, self.d_hat),
        ]
        return all(checks)


def equal_degree_linear(a: Poly, c: Poly, b: Poly,
                        d: Poly) -> LinearPoly | None:
    """The linear ell with a = c o ell and b = ell^{-1} o d, or None.

    b = ell^{-1} o d makes ell^{-1} the unique left factor of b by d.
    """
    inv = left_factor_solve(b, d)
    if inv is None or inv.degree != 1:
        return None
    ell = LinearPoly.from_poly(inv).inverse()
    return ell if compose(c, ell.to_poly()) == a else None


def engstrom_refine(a: Poly, b: Poly, c: Poly, d: Poly) -> EngstromCertificate:
    """Common inner structure of a o b = c o d.

    Produces g, h with deg g = gcd(deg a, deg c), deg h = gcd(deg b, deg d),
    a = g o a_hat, c = g o c_hat, b = b_hat o h, d = d_hat o h, and
    a_hat o b_hat = c_hat o d_hat; and ell = c_hat^{-1}, with a = c o ell
    and b = ell^{-1} o d, when deg a = deg c.

    Engstrom's theorem (Engstrom 1941; Zieve and Mueller 2008) gives such
    G, H, alpha, beta, gamma, delta over the algebraic closure, with
    a = G o alpha, c = G o gamma, b = beta o H, d = delta o H and
    alpha o beta = gamma o delta.  Right factors of one degree agree up to
    a linear map on the left, so with a = g o a_hat and b = b_hat o h the
    normalized splits (monic, zero constant term), alpha = lam o a_hat and
    H = kap o h.  Normalized right factors are unique, so they, and the
    left factors g = G o lam, b_hat and d_hat = delta o kap that right
    cancellation fixes, lie in the field.  Then c_hat = lam^{-1} o gamma
    has g o c_hat = c and a_hat o b_hat = c_hat o d_hat, and right
    cancellation makes it the one left factor of a_hat o b_hat by d_hat.
    So no step below can fail.  The digits prove a = g o a_hat, b = b_hat o
    h, d = d_hat o h and a_hat o b_hat = c_hat o d_hat, so c o d = g o c_hat
    o d_hat, and right cancellation gives c = g o c_hat.
    """
    if any(p.degree < 1 for p in (a, b, c, d)):
        raise HypothesisViolationError("all four inputs must be nonconstant")
    if compose(a, b) != compose(c, d):
        raise HypothesisViolationError("a o b differs from c o d")
    field = a.field
    D = gcd(a.degree, c.degree)
    E = gcd(b.degree, d.degree)
    split_a = ((a, Poly.x(field)) if D == a.degree
               else normalized_right_factor(a, a.degree // D))
    split_b = ((Poly.x(field), b) if E == b.degree
               else normalized_right_factor(b, E))
    d_hat = c_hat = None
    if split_a is not None and split_b is not None:
        (g, a_hat), (b_hat, h) = split_a, split_b
        d_hat = left_factor_solve(d, h)
    if d_hat is not None:
        c_hat = left_factor_solve(compose(a_hat, b_hat), d_hat)
    if c_hat is None:
        raise RuntimeError("internal: Engstrom factors missing in the field")
    ell = (LinearPoly.from_poly(c_hat).inverse()
           if a.degree == c.degree else None)
    return EngstromCertificate(g, h, a_hat, b_hat, c_hat, d_hat, ell)


class PowerFormSplit(Record):
    j: int
    k: int
    P1: Poly
    P2: Poly
    ell: LinearPoly
    gcd_j_ok: bool
    gcd_k_ok: bool


def verify_power_form(F: Poly, s: int, n: int) -> Poly:
    """The P with F = x^s P(x)^n, P(0) != 0; raises if there is none."""
    if F.is_zero() or F.multiplicity_at_zero() != s:
        raise HypothesisViolationError(
            "composition does not vanish to order s at 0")
    split = power_form(F, n)
    if split is None:
        raise HypothesisViolationError(
            "F/x^s is not an n-th power over any field")
    return split[1].scale(_lead_roots(
        F.leading(), n, F.field,
        "F/x^s is an n-th power only after a field extension")[0])


def decompose_power_form(A: Poly, B: Poly, s: int, n: int) -> PowerFormSplit:
    """Split A o B = x^s P(x)^n into A = x^j P1^n o ell, B = ell^{-1} o x^k P2^n.

    The coprimality of j and k with n is reported via flags rather than
    enforced, since it can fail when gcd(s, n) > 1.

    B - B_0 = lc*x^k*R^n gives W = ell o B = x^k*(lc*R)^n, and the digits
    prove F = D o W = (A o ell^{-1}) o W: so A = D o ell by cancellation.
    """
    if s < 1 or n < 1:
        raise HypothesisViolationError("s and n must be positive")
    field = A.field
    F = compose(A, B)
    verify_power_form(F, s, n)

    inner = power_form(B - B.constant_term(), n)
    if inner is None:
        raise HypothesisViolationError(
            "inner factor does not fit the x^k P2(x)^n shape")
    k, R = inner
    alpha = B.leading() ** (n - 1)
    P2 = R.scale(B.leading())
    ell = LinearPoly.make(field, alpha, -alpha * B.constant_term())
    W = compose(ell.to_poly(), B)
    D = left_factor_solve(F, W)
    outer = None if D is None or D.constant_term() else power_form(D, n)
    if outer is None:
        raise HypothesisViolationError(
            "outer factor does not fit the x^j P1(x)^n shape")
    j, R1 = outer
    P1 = R1.scale(_lead_roots(D.leading(), n, field, "outer P1 requires "
                              "an n-th root outside the field")[0])
    return PowerFormSplit(j=j, k=k, P1=P1, P2=P2, ell=ell,
                          gcd_j_ok=gcd(j, n) == 1,
                          gcd_k_ok=gcd(k, n) == 1)
