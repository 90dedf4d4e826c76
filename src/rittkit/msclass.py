"""Periodic plane curves for split polynomial maps (x, y) -> (f(x), g(y)).

curve_image pushes a graph whose image is a graph by one left-factor
solve, and every other curve by two calls of the x-push _push_x, one
through f and one through g, then the squarefree part; the push takes
power sums, not resultants.  curve_period certifies minimal periods with
the full image chain, and ms_diagonal_curves enumerates the diagonal-form
invariant curves coming from linear symmetries composed with iterates.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from .bivar import (BivarCurve, BivarPoly, _sample_points, bivar_squarefree,
                    interpolate_columns)
from .conjugacy import classify
from .decompose import _is_indecomposable, left_factor_solve
from .errors import (CollapsedImageError, HypothesisViolationError,
                     FieldExtensionRequiredError, ResourceCapError,
                     RittKitError)
from .field import (_int_nth_root, int_vectors, power, ring_dot,
                    scalar_sort_key)
from .poly import Poly, compose
from .record import Record
from .semiconj import solve_intertwiner
from .symmetry import m_infinity

IMAGE_DEGREE_CAP = 512


def _x_minus(h: Poly) -> BivarPoly:
    """x - h(y)."""
    return (BivarPoly.from_univar(Poly.x(h.field), "x")
            - BivarPoly.from_univar(h, "y"))


def _univar_image(h: Poly, f: Poly, powers: list[Poly]) -> Poly:
    """R(u) = Res_t(h(t), u - f(t)) = lc(h)^d * prod (u - f(a)) over the
    roots a of h, d = deg f (Poisson's formula), by power sums (Bostan,
    Flajolet, Salvy and Schost 2006) on integer vectors (`ring_dot`).

    With h = H/D, f = F/E and 1/lc(H) = L/c, Newton's recurrence gives
    the power sums c^j*s_j, j <= n*d, of the roots c*a of t^n + sum_i
    c^(i-1)*H_(n-i)*L*t^(n-i); P_k = sum_j [t^j] F^k*c^j*s_j*c^(kd-j) is
    c^(kd)*E^k*sum f(a)^k, and Newton's identities give c^(kd)*E^k times
    q_k, the u^(n-k) coefficient of prod (u - f(a)).  Both are algebraic
    integers, so /k is exact, and so is /c^(kd) of lc(H)^d times them:
    over E^k*D^d, R's coefficients.  powers starts [f, ..., f^n].
    """
    field, n, d, m = h.field, h.degree, f.degree, h.field.order
    H, D = int_vectors(h.coeffs)
    Hd = power(H[-1], d, [1] + [0] * (field.degree - 1),
               lambda a, b: ring_dot([a], [b], m))
    [L], c = int_vectors([1 / field.from_ints(list(H[-1]), 1)])
    cp = list(accumulate([c] * (n * d), mul, initial=1))
    e = [None] + [[-x * cp[i - 1] for x in ring_dot([H[n - i]], [L], m)]
                  for i in range(1, n + 1)]          # -c^(i-1)*H_(n-i)*L
    s = [[n] + [0] * (field.degree - 1)]             # c^j*s_j
    for j in range(1, n * d + 1):
        top = min(j - 1, n)
        s.append(ring_dot(e[1:top + 1], s[j - 1:j - top - 1:-1], m,
                          [j * x for x in e[j]] if j <= n else ()))
    W = [[x * cp[n * d - j] for x in v] for j, v in enumerate(s)]
    E, P, q = int_vectors(f.coeffs)[1], [None], [None]
    for k, fk in enumerate(powers[:n], 1):
        vecs, den = int_vectors(fk.coeffs)                # F^k = E^k*f^k
        P.append([x * (E ** k // den) // cp[(n - k) * d]
                  for x in ring_dot(vecs, W, m)])
        q.append([-x // k for x in ring_dot(q[1:k], P[k - 1:0:-1], m, P[k])])
    return Poly.make(field, [field.from_ints(
        [x // cp[k * d] for x in ring_dot([Hd], [q[k]], m)] if k else Hd,
        E ** k * D ** d) for k in range(n, -1, -1)])


def _push_x(G: BivarPoly, f: Poly) -> BivarPoly:
    """Res_x(G(x, y), u - f(x)) as rows by the power of u, each a Poly in y.

    The leading x-coefficient of u - f(x) is the constant -lc(f), so the
    resultant is c * prod_{f(a) = u} G(a, y) with no extraneous factor,
    and it specializes exactly at every y0 where G keeps its x-degree:
    one _univar_image on integer vectors per y0, one interpolate_columns
    for all.  The row variable swaps, so a second push eliminates y.
    """
    field = G.field
    Gt = G.transpose()
    lead = Gt.rows[-1]
    ys = list(_sample_points(field, G.deg_y * f.degree + 1,
                             lambda y0: not lead.evaluate(y0)))
    powers = list(accumulate([f] * G.deg_x, mul))
    slices = [_univar_image(Gt.eval_x(y0), f, powers) for y0 in ys]
    return BivarPoly.make(field, interpolate_columns(
        field, ys, [[S.coeff(k) for S in slices]
                    for k in range(G.deg_x + 1)]))


def _graph_image(G: BivarPoly, f: Poly, g: Poly) -> BivarPoly | None:
    """y - q(x) if G = c*y + r(x), c constant, and q o f == g o h for a
    nonconstant h = -r/c, q read off the f-adic digits of g o h, which
    prove it: the image (f(t), q(f(t))) is an irreducible curve inside
    the irreducible graph of q, so the two are equal.
    """
    if G.deg_y != 1 or G.rows[1].degree != 0:
        return None
    h = G.rows[0].scale(-G.field.one() / G.rows[1].constant_term())
    q = left_factor_solve(compose(g, h), f) if h.degree >= 1 else None
    return None if q is None else _x_minus(q).transpose()


def curve_image(C: BivarCurve, f: Poly, g: Poly) -> BivarCurve:
    """Zariski closure of the image of C under (x, y) -> (f(x), g(y)).

    A graph y = h(x), C.poly = c*y + r(x), whose image is a graph y = q(x)
    takes one left_factor_solve of q o f == g o h; x = h(y) is the same
    test on the transpose, f and g swapped.  Any other curve, or graph,
    takes the bivariate route: the squarefree part of
    Res_y(Res_x(G, u - f(x)), v - g(y)), two calls of _push_x;
    bivar_squarefree splits off vertical and horizontal line content.
    """
    if f.degree < 1 or g.degree < 1:
        raise RittKitError("both coordinate maps must be nonconstant")
    graph = _graph_image(C.poly, f, g)
    if graph is not None:
        return BivarCurve.make(graph)
    graph = _graph_image(C.poly.transpose(), g, f)
    if graph is not None:
        return BivarCurve.make(graph.transpose())
    total = bivar_squarefree(_push_x(_push_x(C.poly, f), g))
    if total.deg_x < 1 and total.deg_y < 1:
        raise CollapsedImageError("image is not a curve")
    return BivarCurve.make(total)


class PeriodCertificate(Record):
    curve: BivarCurve
    period: int
    image_chain: tuple  # image_chain[0] = curve, image_chain[period] = curve

    def verify(self, f: Poly, g: Poly) -> bool:
        chain = self.image_chain
        return (self.period >= 1 and len(chain) == self.period + 1
                and chain[0] == chain[-1] == self.curve
                and self.curve not in chain[1:-1]
                and all(curve_image(a, f, g) == b
                        for a, b in zip(chain, chain[1:])))


def curve_period(C: BivarCurve, f: Poly, g: Poly, N_max: int,
                 degree_cap: int = IMAGE_DEGREE_CAP):
    """Minimal period of C under (f, g) with its image chain, or None.

    A sound early exit: the defining polynomial of any curve divides the
    pullback of its image, so deg_x can shrink by at most a factor of
    deg f per step (and deg_y by deg g).  Once the chain's degrees exceed
    what could map back onto C in the remaining steps, it never returns.
    """
    if N_max < 1:
        raise RittKitError("N_max must be >= 1")
    if degree_cap < 1:
        raise RittKitError("degree_cap must be >= 1")
    chain = [C]
    for n in range(1, N_max + 1):
        nxt = curve_image(chain[-1], f, g)
        if nxt.deg_x > degree_cap or nxt.deg_y > degree_cap:
            raise ResourceCapError(
                f"intermediate curve degree exceeds cap {degree_cap}")
        chain.append(nxt)
        if nxt == C:
            return PeriodCertificate(C, n, tuple(chain))
        remaining = N_max - n
        if (nxt.deg_x > C.deg_x * f.degree ** remaining
                or nxt.deg_y > C.deg_y * g.degree ** remaining):
            return None
    return None


def projection_profile(C: BivarCurve) -> dict:
    """Whether each coordinate projection of the curve is constant."""
    return {"x_constant": C.x_constant(), "y_constant": C.y_constant()}


def graph_curve(h: Poly, orientation: str = "y") -> BivarCurve:
    """The curve y - h(x) = 0, or x - h(y) = 0 when orientation is "x"."""
    G = _x_minus(h)
    return BivarCurve.make(G.transpose() if orientation == "y" else G)


def f_tilde_candidate(f: Poly, iter_bound: int) -> Poly:
    """Lowest-degree nonlinear polynomial commuting with an iterate of f.

    f must be disintegrated, and so is every f^(o k).  By Ritt (1923,
    "Permutable rational functions", Trans. AMS 25) a nonlinear p that
    commutes with f^(o k) then has p^(o a) = mu o f^(o kb), mu linear: two
    permutable polynomials share an iterate up to a linear map unless one
    conjugacy takes both to powers of x or to +-Chebyshev maps.  So
    (deg p)^a = d^(kb), and with d = deg f = r^t, r not a perfect power,
    deg p is a power of r.  By Ritt's first theorem (1922, "Prime and
    composite polynomials", Trans. AMS 23) the multisets D of degrees in
    complete decompositions give a*D(p) = kb*D(f), so deg p >= d when f
    is indecomposable.  When r = d or f is indecomposable the answer is
    f, found without a search; otherwise each f^(o k), k <= iter_bound,
    is solved for commuters of degree below d, keeping the first of least
    degree (f by default), and the search stops at degree r.
    """
    if not classify(f).disintegrated:
        raise HypothesisViolationError(
            "f-tilde expects a disintegrated polynomial")
    r = min(filter(None, (_int_nth_root(f.degree, n)
                          for n in range(1, f.degree.bit_length()))))
    if r == f.degree or _is_indecomposable(f):
        return f
    best = f
    F = Poly.x(f.field)
    for _ in range(iter_bound):
        F = compose(f, F)
        try:
            cands = solve_intertwiner(F, F, f.degree - 1)
        except FieldExtensionRequiredError:
            continue
        for p in cands:
            if 2 <= p.degree < best.degree:
                best = p
        if best.degree == r:
            break
    return best


class DiagonalCurve(Record):
    g: Poly
    curve: BivarCurve
    certificate: PeriodCertificate


def _poly_sort_key(p: Poly):
    return (p.degree, tuple(scalar_sort_key(c) for c in p.coeffs))


def _add_periodic_graph(found: dict, h: Poly, orientation: str, f: Poly,
                        g: Poly, N: int) -> None:
    """Key the graph of h by its curve in found, with its certificate, if
    it is new and curve_period finds a period <= N under (f, g)."""
    curve = graph_curve(h, orientation)
    if curve not in found:
        cert = curve_period(curve, f, g, N)
        if cert is not None:
            found[curve] = DiagonalCurve(g=h, curve=curve, certificate=cert)


def ms_diagonal_curves(f: Poly, deg_cap: int,
                       iter_bound: int | None = None) -> list:
    """Invariant diagonal-form curves y = g(x) and x = g(y) for (f, f).

    Candidates g run over the linear maps commuting with some iterate of
    f, composed on either side with iterates of the lowest-degree
    nonlinear commuter; each emitted curve carries a period certificate.
    f must be disintegrated (`f_tilde_candidate` raises otherwise).

    The period comes from the graph pushes the certificate needs, with no
    iterate of f: the image of y = g(x) under (f^(o n), f^(o n)) is
    {(f^n(x), f^n(g(x)))}, the graph of g exactly when f^n o g = g o f^n,
    and x = g(y) gives the same condition.  So `curve_period` to
    iter_bound finds the least n at which g commutes with f^(o n).
    """
    if f.degree < 2:
        raise RittKitError("ms_diagonal_curves needs degree >= 2")
    if iter_bound is None:
        iter_bound = f.degree
    ft = f_tilde_candidate(f, iter_bound)
    if deg_cap < 1:
        raise RittKitError("deg_cap must be >= 1")
    group = m_infinity(f, iter_bound)
    cands = []
    for L in group.elements:
        Lp = L.to_poly()
        base = Poly.x(f.field)
        while base.degree <= deg_cap:
            for gg in (compose(base, Lp), compose(Lp, base)):
                if 1 <= gg.degree <= deg_cap and gg not in cands:
                    cands.append(gg)
            base = compose(ft, base)
    found = {}
    for gg in sorted(cands, key=_poly_sort_key):
        for orientation in ("y", "x"):
            _add_periodic_graph(found, gg, orientation, f, f, iter_bound)
    return list(found.values())


def periodic_graph_search(f: Poly, g: Poly, deg_cap: int,
                          N_max: int) -> list:
    """Periodic graph-shaped curves for the split map (f, g).

    Searches curves y = h(x) and x = h(y) with deg h <= deg_cap fixed by
    the N-th power of the map for some N <= N_max; each hit is returned
    as a DiagonalCurve with a period certificate.  Graphs invariant under
    any iterate force equal degrees, so unequal inputs yield nothing.
    """
    if f.degree < 2 or g.degree < 2:
        raise RittKitError("periodic_graph_search needs degrees >= 2")
    if N_max < 1 or deg_cap < 1:
        raise RittKitError("N_max and deg_cap must be >= 1")
    if f.degree != g.degree:
        return []
    found = {}
    FN = GN = Poly.x(f.field)
    for N in range(1, N_max + 1):
        FN, GN = compose(f, FN), compose(g, GN)
        for left, right, orientation in ((GN, FN, "y"), (FN, GN, "x")):
            try:
                hs = solve_intertwiner(left, right, deg_cap)
            except FieldExtensionRequiredError:
                hs = []
            for h in hs:
                _add_periodic_graph(found, h, orientation, f, g, N)
    return list(found.values())
