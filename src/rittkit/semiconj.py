"""Semiconjugacy: checking, solving, normal forms, common semiconjugates.

The central relation is f o p = p o eta.  The solvers are coefficient
recursions that are exact and complete over Q; the common-semiconjugate
search is bounded and certificate producing, never a decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd

from .decompose import right_factor_solve
from .errors import (FieldExtensionRequiredError, HypothesisViolationError,
                     ResourceCapError, RittKitError)
from .field import nth_roots
from .poly import (LinearPoly, Poly, _rev_compose_trunc, compose, iterate,
                   poly_nth_root, power_shape, solve_top_down)
from .roots import in_field_roots

DEFAULT_N_MAX = 4
DEFAULT_DEG_CAP = 32


@dataclass(frozen=True)
class SemiconjWitness:
    f: Poly
    p: Poly
    eta: Poly


def semiconj_check(w: SemiconjWitness) -> bool:
    return compose(w.f, w.p) == compose(w.p, w.eta)


def solve_eta(f: Poly, p: Poly) -> Poly | None:
    """The eta with f o p = p o eta, unique when it exists."""
    if f.degree < 2 or p.degree < 1:
        raise RittKitError("need deg f >= 2 and deg p >= 1")
    cands = right_factor_solve(compose(f, p), p)
    return cands[0] if cands else None


def solve_intertwiner(left: Poly, right: Poly, deg_bound: int) -> list:
    """All p with 1 <= deg p <= deg_bound and left o p = p o right.

    For each degree b the leading coefficient satisfies
    lc(left) lc(p)^(delta-1) = lc(right)^b; the rest of p follows by a
    triangular recursion whose pivot delta*lc(left)*lc(p)^(delta-1) never
    vanishes in characteristic zero.  The recursion only ever looks at
    the top coefficients of the two compositions, so it runs on truncated
    reversed series; a full composition check confirms each candidate.
    """
    if left.degree != right.degree or left.degree < 2:
        raise RittKitError("need equal degrees >= 2")
    if deg_bound < 1:
        raise RittKitError("deg_bound must be >= 1")
    field = left.field
    delta = left.degree
    found = []
    blocked = None
    for b in range(1, deg_bound + 1):
        m = min(delta * b, 2 * b + 4)
        target = right.leading() ** b / left.leading()
        leads = nth_roots(target, delta - 1, field)
        if not leads:
            blocked = f"t^{delta - 1} = {target}"
            continue
        for a in leads:
            cand = solve_top_down(
                field, a, b, b, delta * left.leading() * a ** (delta - 1),
                lambda p, j: (_rev_compose_trunc(p, right, j)[j]
                              - _rev_compose_trunc(left, p, j)[j]))
            if _rev_compose_trunc(left, cand, m) != \
                    _rev_compose_trunc(cand, right, m):
                continue
            if compose(left, cand) == compose(cand, right) and cand not in found:
                found.append(cand)
    if not found and blocked is not None:
        raise FieldExtensionRequiredError(
            "a leading-coefficient equation has no in-field root",
            equation=blocked)
    return found


def solve_p(f: Poly, eta: Poly, deg_bound: int) -> list:
    """All p with 1 <= deg p <= deg_bound and f o p = p o eta."""
    return solve_intertwiner(f, eta, deg_bound)


@dataclass(frozen=True)
class InouNormalForm:
    ell1: LinearPoly
    ell2: LinearPoly
    b: int
    c: int
    P: Poly
    congruence_flag: bool
    detail: dict = dc_field(default_factory=dict)

    def verify(self, w: SemiconjWitness) -> bool:
        field = self.P.field
        f_t = compose(self.ell1.to_poly(),
                      compose(w.f, self.ell1.inverse().to_poly()))
        p_t = compose(self.ell1.to_poly(),
                      compose(w.p, self.ell2.inverse().to_poly()))
        eta_t = compose(self.ell2.to_poly(),
                        compose(w.eta, self.ell2.inverse().to_poly()))
        rhs_f = Poly.monomial(field, self.c) * self.P ** self.b
        rhs_eta = Poly.monomial(field, self.c) * compose(
            self.P, Poly.monomial(field, self.b))
        return (f_t == rhs_f and p_t == Poly.monomial(field, self.b)
                and eta_t == rhs_eta)


def inou_normal_form(w: SemiconjWitness) -> InouNormalForm:
    """Normal form ell1 o f o ell1^{-1} = x^c P(x)^b, ell1 o p o ell2^{-1} = x^b.

    Requires gcd(deg f, deg p) = 1 and a disintegrated f.  The congruence
    flag reports whether c = b holds modulo deg f; the raw residues ship in
    detail for inspection since competing congruences exist.
    """
    from .conjugacy import classify
    f, p, eta = w.f, w.p, w.eta
    field = f.field
    delta, b = f.degree, p.degree
    if not semiconj_check(w):
        raise HypothesisViolationError("witness identity f o p = p o eta fails")
    if gcd(delta, b) != 1:
        raise HypothesisViolationError("gcd(deg f, deg p) must be 1")
    if not classify(f).disintegrated:
        raise HypothesisViolationError("f must be disintegrated")

    if b == 1:
        # degenerate witness: conjugate f so the origin is fixed
        fixed = in_field_roots(f - Poly.x(field))
        if not fixed:
            raise FieldExtensionRequiredError(
                "no in-field fixed point of f for the degenerate normal form")
        w0 = fixed[0]
        ell1 = LinearPoly.make(field, 1, -w0)
        ell2 = LinearPoly.from_poly(compose(ell1.to_poly(), p))
        f_t = compose(ell1.to_poly(), compose(f, ell1.inverse().to_poly()))
        c = f_t.multiplicity_at_zero()
        P = Poly(field, f_t.coeffs[c:])
        nf = InouNormalForm(ell1, ell2, 1, c, P,
                            congruence_flag=(c - 1) % delta == 0,
                            detail={"c_mod_delta": c % delta,
                                    "b_mod_delta": 1 % delta,
                                    "c_mod_b": 0})
        if not nf.verify(w):
            raise RittKitError("degenerate normal form failed verification")
        return nf

    # p must be a shifted power: p = p_b (x + t)^b + B
    shape = power_shape(p)
    if shape is None:
        raise HypothesisViolationError(
            "p is not equivalent to a power map, so the normal form "
            "hypotheses cannot hold")
    t, B = shape
    ell2 = LinearPoly.make(field, 1, t)
    ell1 = LinearPoly.make(field, field.one() / p.leading(),
                           -B / p.leading())
    f_t = compose(ell1.to_poly(), compose(f, ell1.inverse().to_poly()))
    if f_t.constant_term():
        raise HypothesisViolationError(
            "conjugated f does not vanish at the origin")
    c = f_t.multiplicity_at_zero()
    Q = Poly(field, f_t.coeffs[c:])
    if Q.degree % b:
        raise HypothesisViolationError("f does not have the x^c P(x)^b shape")
    eta_t = compose(ell2.to_poly(), compose(eta, ell2.inverse().to_poly()))
    P = None
    for lead in nth_roots(Q.leading(), b, field):
        cand = poly_nth_root(Q, b, lead)
        if cand is None:
            continue
        rhs_eta = Poly.monomial(field, c) * compose(
            cand, Poly.monomial(field, b))
        if eta_t == rhs_eta:
            P = cand
            break
        if P is None:
            P = cand  # keep a root even if eta picks another unity twist
    if P is None:
        raise FieldExtensionRequiredError(
            "P requires a b-th root outside the field",
            equation=f"t^{b} = {Q.leading()}")
    nf = InouNormalForm(ell1, ell2, b, c, P,
                        congruence_flag=(c - b) % delta == 0,
                        detail={"c_mod_delta": c % delta,
                                "b_mod_delta": b % delta,
                                "c_mod_b": c % b})
    if not nf.verify(w):
        raise RittKitError("normal form failed verification")
    return nf


@dataclass(frozen=True)
class CommonWitness:
    N: int
    eta: Poly
    p: Poly
    q: Poly

    def verify(self, f: Poly, g: Poly) -> bool:
        fN, gN = iterate(f, self.N), iterate(g, self.N)
        return (compose(fN, self.p) == compose(self.p, self.eta)
                and compose(gN, self.q) == compose(self.q, self.eta))


def _power_shape_etas(F: Poly, deg_cap: int):
    """Candidate (p, eta) with F o p = p o eta from fixed-point power shapes."""
    field = F.field
    out = []
    for w0 in in_field_roots(F - Poly.x(field)):
        shifted = compose(Poly.make(field, [-w0, 1]),
                          compose(F, Poly.make(field, [w0, 1])))
        if not shifted.coeffs or shifted.constant_term():
            continue
        c = shifted.multiplicity_at_zero()
        Q = Poly(field, shifted.coeffs[c:])
        for b in range(2, deg_cap + 1):
            if Q.degree % b:
                continue
            for lead in nth_roots(Q.leading(), b, field):
                P = poly_nth_root(Q, b, lead)
                if P is None:
                    continue
                eta = Poly.monomial(field, c) * compose(
                    P, Poly.monomial(field, b))
                p = Poly.monomial(field, b) + Poly.constant(field, w0)
                if compose(F, p) == compose(p, eta):
                    out.append((p, eta))
                break
    return out


def common_semiconjugate(f: Poly, g: Poly,
                         N_max: int = DEFAULT_N_MAX,
                         deg_cap: int = DEFAULT_DEG_CAP) -> CommonWitness | None:
    """A verified common semiconjugate of f^(o N) and g^(o N), if found.

    Bounded search: absence means "not found at these caps", never a
    proof that f and g are inequivalent.
    """
    from .conjugacy import classify
    if N_max < 1:
        raise RittKitError("N_max must be >= 1")
    if f.degree != g.degree or f.degree < 2:
        raise RittKitError("need equal degrees >= 2")
    if not classify(f).disintegrated or not classify(g).disintegrated:
        raise HypothesisViolationError("both inputs must be disintegrated")
    field = f.field
    for N in range(1, N_max + 1):
        try:
            fN, gN = iterate(f, N), iterate(g, N)
        except ResourceCapError:
            break
        candidates = []
        # direct routes: eta is one side's iterate
        candidates.append((gN, "p"))
        candidates.append((fN, "q"))
        for eta, side in candidates:
            try:
                sols = solve_p(fN if side == "p" else gN, eta, deg_cap)
            except (FieldExtensionRequiredError, ResourceCapError):
                sols = []
            if sols:
                sols.sort(key=lambda s: s.degree)
                if side == "p":
                    wit = CommonWitness(N, eta, sols[0], Poly.x(field))
                else:
                    wit = CommonWitness(N, eta, Poly.x(field), sols[0])
                if wit.verify(f, g):
                    return wit
        # fixed-point power-shape routes on either side
        for F, G, flip in ((fN, gN, False), (gN, fN, True)):
            for p_cand, eta in _power_shape_etas(F, deg_cap):
                try:
                    sols = solve_p(G, eta, deg_cap)
                except (FieldExtensionRequiredError, ResourceCapError):
                    sols = []
                if not sols:
                    continue
                sols.sort(key=lambda s: s.degree)
                if flip:
                    wit = CommonWitness(N, eta, sols[0], p_cand)
                else:
                    wit = CommonWitness(N, eta, p_cand, sols[0])
                if wit.verify(f, g):
                    return wit
    return None


@dataclass(frozen=True)
class ApproxClasses:
    classes: tuple        # tuple of tuples of indices
    representatives: dict  # class root index -> (theta, N, {index: p_i})


def approx_classes(fs, N_max: int = DEFAULT_N_MAX,
                   deg_cap: int = DEFAULT_DEG_CAP) -> ApproxClasses:
    """Partition by pairwise common-semiconjugate success at the given caps.

    For each class a single theta semiconjugate to every member's N-th
    iterate is produced by chaining pairwise witnesses.
    """
    if N_max < 1:
        raise RittKitError("N_max must be >= 1")
    n = len(fs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            wit = common_semiconjugate(fs[i], fs[j], N_max, deg_cap)
            if wit is not None:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    reps = {}
    for root, members in groups.items():
        first = members[0]
        theta = iterate(fs[first], 1)
        N = 1
        witnesses = {first: Poly.x(fs[first].field)}
        for other in members[1:]:
            wit = common_semiconjugate(theta, iterate(fs[other], N),
                                       N_max, deg_cap)
            if wit is None:
                raise RittKitError(
                    "chaining failed although pairwise witnesses exist")
            for idx in witnesses:
                witnesses[idx] = compose(witnesses[idx], wit.p)
            witnesses[other] = wit.q
            theta = wit.eta
            N = N * wit.N
        reps[root] = (theta, N, witnesses)
    classes = tuple(tuple(sorted(m)) for m in groups.values())
    return ApproxClasses(classes=classes, representatives=reps)
