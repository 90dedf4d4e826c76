"""Semiconjugacy: checking, solving, normal forms, common semiconjugates.

The central relation is f o p = p o eta.  The solvers are coefficient
recursions that are exact and complete over Q; the common-semiconjugate
search is bounded and certificate producing, never a decision procedure.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .conjugacy import classify
from .decompose import right_factor_solve
from .errors import (FieldExtensionRequiredError, HypothesisViolationError,
                     ResourceCapError, RittKitError)
from .field import int_vector, nth_roots
from .poly import (LinearPoly, Poly, _compose_vec, _from_vector,
                   _int_series_root, _rev_compose_trunc, _same, _vector,
                   compose, conjugate, iterate, power_form, power_shape,
                   series_root)
from .record import Record, fresh
from .roots import in_field_roots

DEFAULT_N_MAX = 4
DEFAULT_DEG_CAP = 32


class SemiconjWitness(Record):
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

    For each degree b the leading coefficient a satisfies
    lc(left) a^(delta-1) = lc(right)^b.  With c = left_(delta-1) /
    (delta*lc(left)), left o p and lc(left)*(p + c)^delta agree in their
    top b + 1 coefficients, so p + c is a times the delta-th root of the
    top of p o right over its lead.  Reading p off that root
    (poly.series_root) and recomputing the top of p o right multiplies
    the number of correct top coefficients by delta, so b.bit_length()
    rounds from p = a*x^b fix all of p.  A truncated top-coefficient
    comparison and then a full composition check confirm each candidate.

    Over Q every candidate, top and composition is a pair (integers,
    denominator) (`poly._vector`): the Newton step reads p off the
    integer root recurrence (`_newton_step`), and two pairs compare by
    cross-multiplication (`poly._same`).  Integer sums and products are
    exact, so both checks decide the same equalities as Fractions would;
    only the accepted p becomes a Poly.
    """
    if left.degree != right.degree or left.degree < 2:
        raise RittKitError("need equal degrees >= 2")
    if deg_bound < 1:
        raise RittKitError("deg_bound must be >= 1")
    field = left.field
    delta = left.degree
    c = left.coeff(delta - 1) / (delta * left.leading())
    L, R = _vector(left), _vector(right)
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
            cand = _vector(Poly.monomial(field, b, a))
            for _ in range(b.bit_length()):
                cand = _newton_step(_rev_compose_trunc(cand, R, b)[0],
                                    delta, a, c)
            if not (_same(_rev_compose_trunc(L, cand, m),
                          _rev_compose_trunc(cand, R, m))
                    and _same(_compose_vec(L, cand), _compose_vec(cand, R))):
                continue
            p = _from_vector(field, *cand)
            if p not in found:
                found.append(p)
    if not found and blocked is not None:
        raise FieldExtensionRequiredError(
            "a leading-coefficient equation has no in-field root",
            equation=blocked)
    return found


def _newton_step(top: list, n: int, a, c) -> tuple:
    """The `_vector` pair of a*rev(P) - c, P the first len(top) terms of
    the n-th root series of top/top[0].

    Over Q, top is an integer vector and P_k = p_k/step^k
    (`poly._int_series_root`); with a = an/d and c = cn/d, the x^j
    coefficient of a*rev(P) is an*p_(b-j)*step^j/(d*step^b), b =
    len(top) - 1, so the pair needs no Fraction; it is divided by its
    content.
    """
    b = len(top) - 1
    if type(top[0]) is not int:
        v = [a * q for q in reversed(series_root(top, n, b + 1))]
        v[0] -= c
        return v, 1
    p, step = _int_series_root(top, n, b + 1)
    (an, cn), d = int_vector([a, c])
    v = [an * pk * step ** j for j, pk in enumerate(reversed(p))]
    s = step ** b
    v[0] -= cn * s
    g = gcd(d * s, *v) if s > 0 else -gcd(d * s, *v)
    return [x // g for x in v], d * s // g


def solve_p(f: Poly, eta: Poly, deg_bound: int) -> list:
    """All p with 1 <= deg p <= deg_bound and f o p = p o eta."""
    return solve_intertwiner(f, eta, deg_bound)


class InouNormalForm(Record):
    ell1: LinearPoly
    ell2: LinearPoly
    b: int
    c: int
    P: Poly
    congruence_flag: bool
    detail: dict = fresh(dict)

    def verify(self, w: SemiconjWitness) -> bool:
        field = self.P.field
        f_t = conjugate(self.ell1, w.f)
        p_t = compose(self.ell1.to_poly(),
                      compose(w.p, self.ell2.inverse().to_poly()))
        eta_t = conjugate(self.ell2, w.eta)
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

    ell1 o p o ell2^{-1} = x^b by construction, so f_t(x^b) = eta_t^b for
    the conjugates f_t, eta_t of f, eta.  With zeta^b = 1 primitive, that
    makes eta_t(zeta*x) a constant times eta_t: its exponents are all
    c = mult_0(eta_t) mod b, so eta_t = x^c P(x^b) and f_t = x^c P^b for
    P read off eta_t, with no root taken.  c >= 1: for b = 1 the origin
    is a fixed point of f_t, and for b >= 2 gcd(deg f, b) = 1.
    """
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
        ell1 = LinearPoly.make(field, 1, -fixed[0])
        ell2 = LinearPoly.from_poly(compose(ell1.to_poly(), p))
    else:
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
    eta_t = conjugate(ell2, eta)
    c = eta_t.multiplicity_at_zero()
    return InouNormalForm(ell1, ell2, b, c,
                          Poly.make(field, eta_t.coeffs[c::b]),
                          congruence_flag=(c - b) % delta == 0,
                          detail={"c_mod_delta": c % delta,
                                  "b_mod_delta": b % delta,
                                  "c_mod_b": c % b})


class CommonWitness(Record):
    N: int
    eta: Poly
    p: Poly
    q: Poly

    def verify(self, f: Poly, g: Poly) -> bool:
        fN, gN = iterate(f, self.N), iterate(g, self.N)
        return (compose(fN, self.p) == compose(self.p, self.eta)
                and compose(gN, self.q) == compose(self.q, self.eta))


def _power_shape_etas(F: Poly, deg_cap: int):
    """Pairs (p, eta) with F o p = p o eta from fixed-point power shapes:
    F(x + w0) - w0 = lc*x^c*R^b with a^b = lc gives F(x^b + w0) - w0 =
    x^(c*b)*(a*R(x^b))^b = eta^b for p = x^b + w0, eta = x^c*(a*R)(x^b)."""
    field = F.field
    for w0 in in_field_roots(F - Poly.x(field)):
        shifted = conjugate(LinearPoly.make(field, 1, -w0), F)
        if shifted.constant_term():
            continue
        for b in range(2, deg_cap + 1):
            split = power_form(shifted, b)
            if split is None:
                continue
            c, R = split
            leads = nth_roots(shifted.leading(), b, field)
            if not leads:
                continue
            xb = Poly.monomial(field, b)
            eta = Poly.monomial(field, c) * compose(R.scale(leads[0]), xb)
            yield xb + Poly.constant(field, w0), eta


def common_semiconjugate(f: Poly, g: Poly,
                         N_max: int = DEFAULT_N_MAX,
                         deg_cap: int = DEFAULT_DEG_CAP) -> CommonWitness | None:
    """A verified common semiconjugate of f^(o N) and g^(o N), if found.

    Bounded search: absence means "not found at these caps", never a
    proof that f and g are inequivalent.  `solve_intertwiner` checks s;
    the other side is x, or a pair that `_power_shape_etas` proves.
    """
    if N_max < 1:
        raise RittKitError("N_max must be >= 1")
    if f.degree != g.degree or f.degree < 2:
        raise RittKitError("need equal degrees >= 2")
    if not classify(f).disintegrated or not classify(g).disintegrated:
        raise HypothesisViolationError("both inputs must be disintegrated")
    x = fN = gN = Poly.x(f.field)
    for N in range(1, N_max + 1):
        try:
            fN, gN = compose(f, fN), compose(g, gN)
        except ResourceCapError:
            break
        # A route (F, eta, other, flip) solves F o s = s o eta and pairs s
        # with other; flip puts s on the g side.  The direct routes take
        # eta as one side's iterate; the power-shape routes, tried only
        # after both fail, take it from a fixed-point power shape of the
        # other side's iterate.
        routes = chain(
            ((fN, gN, x, False), (gN, fN, x, True)),
            ((gN, eta, p, True) for p, eta in _power_shape_etas(fN, deg_cap)),
            ((fN, eta, q, False) for q, eta in _power_shape_etas(gN, deg_cap)))
        for F, eta, other, flip in routes:
            try:
                sols = solve_p(F, eta, deg_cap)
            except (FieldExtensionRequiredError, ResourceCapError):
                continue
            if not sols:
                continue
            s = min(sols, key=lambda h: h.degree)
            return (CommonWitness(N, eta, other, s) if flip
                    else CommonWitness(N, eta, s, other))
    return None


class ApproxClasses(Record):
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

    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            # f^N and g^N can share a semiconjugate only at equal degree
            if find(i) == find(j) or fs[i].degree != fs[j].degree:
                continue
            pairs[i, j] = common_semiconjugate(fs[i], fs[j], N_max, deg_cap)
            if pairs[i, j] is not None:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    reps = {}
    for root, members in groups.items():
        first = members[0]
        theta = fs[first]
        N = 1
        witnesses = {first: Poly.x(fs[first].field)}
        for other in members[1:]:
            # the first step repeats the union pass's pair (theta = fs[first],
            # N = 1), which was always searched there: reuse its result
            wit = pairs[first, other] if other == members[1] else (
                common_semiconjugate(theta, iterate(fs[other], N),
                                     N_max, deg_cap))
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
