"""Seeded workload generators, query constructors and answer checks.

A generator turns a seed into plain data: `Fraction` coefficient lists
and ints, with every expected answer built alongside by `qpoly`.  Only
`build` touches `rittkit`; it turns the data into library objects and
returns `Query` records whose `check` never calls the function under
test.  The digest of the generated data is what `digests.json` freezes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import qpoly as Q

LIBRARY_WORKLOADS = ("ritt_q", "poly_large_q", "curves_cyc")
WORKLOADS = LIBRARY_WORKLOADS + ("cli_readme",)


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


# -- random inputs -------------------------------------------------------------

def rand_coeff(rng, nonzero=False):
    while True:
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))
        if c or not nonzero:
            return c


def rand_poly(rng, deg, monic=False):
    """Degree-deg polynomial with small p/q coefficients, dense below the top."""
    cs = [rand_coeff(rng, nonzero=True) for _ in range(deg)]
    return cs + [Fraction(1) if monic else rand_coeff(rng, nonzero=True)]


def rand_linear(rng):
    return [rand_coeff(rng), rand_coeff(rng, nonzero=True)]


def linear_inverse(ell):
    b, a = ell
    return [-b / a, 1 / a]


def rand_squarefree(rng, deg, avoid=()):
    """Squarefree and coprime to every polynomial in `avoid`."""
    while True:
        h = rand_poly(rng, deg)
        if Q.squarefree(h) and all(Q.coprime(h, g) for g in avoid):
            return h


# -- ritt_q: about 200 small queries over Q -------------------------------------

DEG_PAIRS = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 3), (3, 4),
             (4, 4))
ETA_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))


def _symmetric(rng, i):
    """A translate of an odd or even polynomial, with its symmetry -x."""
    if i % 2:
        h = rand_poly(rng, 1 + i % 3)
        core = Q.mul([0, 1], Q.compose(h, [0, 0, 1]))      # x h(x^2)
    else:
        h = rand_poly(rng, 2 + i % 3)
        core = Q.compose(h, [0, 0, 1])                     # h(x^2)
    t = rand_coeff(rng, nonzero=True)
    f = Q.compose(Q.compose([-t, 1], core), [t, 1])        # tau^-1 o core o tau
    return f, [-2 * t, Fraction(-1)]                       # tau^-1 o (-x) o tau


def gen_ritt_q(rng):
    qs = []
    for i in range(50):
        da, db = DEG_PAIRS[i % len(DEG_PAIRS)]
        qs.append(("complete_decompositions",
                   {"f": Q.compose(rand_poly(rng, da), rand_poly(rng, db))}, {}))
    for i in range(30):
        d = 2 + i % 5
        ell = rand_linear(rng)
        if i % 3 == 0:
            model, want = [Fraction(0)] * d + [Fraction(1)], "power"
        elif i % 3 == 1:
            model, want = Q.scale(Q.chebyshev(d), (-1) ** i), "chebyshev"
        else:
            da, db = DEG_PAIRS[i % len(DEG_PAIRS)]
            model = Q.compose(rand_poly(rng, da), rand_poly(rng, db))
            want = None
        f = Q.compose(Q.compose(linear_inverse(ell), model), ell)
        qs.append(("classify", {"f": f}, {"want": want, "degree": len(f) - 1}))
    for i in range(30):
        if i < 20:
            f, sym = _symmetric(rng, i)
        else:
            da, db = DEG_PAIRS[i % len(DEG_PAIRS)]
            f, sym = Q.compose(rand_poly(rng, da), rand_poly(rng, db)), None
        qs.append(("gamma_group", {"f": f}, {"symmetry": sym}))
    for i in range(30):
        da, db = DEG_PAIRS[i % len(DEG_PAIRS)]
        f = Q.compose(rand_poly(rng, da), rand_poly(rng, db))
        g = Q.compose(Q.compose(rand_linear(rng), f), rand_linear(rng))
        qs.append(("equivalence_witness", {"f": f, "g": g}, {}))
    for kind in ("solve_eta", "solve_intertwiner"):
        for i in range(30):
            dp, dq = ETA_PAIRS[i % len(ETA_PAIRS)]
            p, q = rand_poly(rng, dp), rand_poly(rng, dq)
            qs.append((kind, {"f": Q.compose(p, q), "p": p,
                              "eta": Q.compose(q, p)}, {}))
    return qs


# -- poly_large_q: fewer, large queries over Q -------------------------------------

ITERATES = ((2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5))
CHEBYSHEV_DECOMP = (32, 48, 64)
CHAIN_DEGREES = ((3, 3, 5), (2, 5, 5), (3, 4, 4), (4, 4, 4))
GCD_DEGREES = (24, 36, 48, 60)
RESULTANT_DEGREES = (16, 24, 32)
INSTANCES = 8   # random inputs per size: their costs vary with the seed


def gen_poly_large_q(rng):
    qs = [("complete_decompositions", {"f": Q.chebyshev(n)}, {})
          for n in CHEBYSHEV_DECOMP]
    for _ in range(INSTANCES):
        qs += _random_large_q(rng)
    return qs


def _random_large_q(rng):
    qs = []
    for d, m in ITERATES:
        f = rand_poly(rng, d)
        qs.append(("iterate", {"f": f, "m": m}, {}))
    for degs in CHAIN_DEGREES:
        f = rand_poly(rng, degs[0])
        for d in degs[1:]:
            f = Q.compose(f, rand_poly(rng, d, monic=True))
        qs.append(("complete_decompositions", {"f": f}, {}))
    for n in GCD_DEGREES:
        g = rand_poly(rng, n // 2)
        u = rand_poly(rng, n // 2)
        v = rand_squarefree(rng, n // 2, avoid=(u,))
        qs.append(("poly_gcd", {"a": Q.mul(g, u), "b": Q.mul(g, v)},
                   {"gcd": Q.monic(g)}))
    for n in GCD_DEGREES:
        h = rand_squarefree(rng, n // 3)
        g = rand_squarefree(rng, n // 3, avoid=(h,))
        qs.append(("squarefree_part", {"f": Q.mul(Q.mul(h, h), g)},
                   {"part": Q.monic(Q.mul(h, g))}))
    for n in RESULTANT_DEGREES:
        a = rand_poly(rng, n)
        b = rand_squarefree(rng, n, avoid=(a,))
        qs.append(("resultant_univar", {"a": a, "b": b},
                   {"mod": [[p, Q.resultant_modp(a, b, p)] for p in Q.PRIMES]}))
    return qs


# -- curves_cyc: curve images and periods over Q(zeta 5) and Q(zeta 7) ---------------

def _order_of_two(m, k):
    n, r = 1, (2 * k) % m
    while r != k % m:
        n, r = n + 1, (2 * r) % m
    return n


def _minus_zeta_power(k):
    """-z^k as a coefficient vector in powers of z (reduced by the library)."""
    return [0] * k + [-1]


def rand_unit(rng, m):
    """(sign, j) for +-z^j with j < m - 1: every coefficient has one size."""
    return rng.choice((-1, 1)), rng.randrange(m - 1)


def unit_vector(u, m):
    vec = [0] * (m - 1)
    vec[u[1]] = u[0]
    return vec


def proportional(us, vs, m) -> bool:
    """True when the unit vectors us and vs differ by one common factor."""
    return len({(a[0] * b[0], (a[1] - b[1]) % m) for a, b in zip(us, vs)}) == 1


CURVE_SHAPES = ((2, 1), (1, 2), (2, 2))


def rand_curve(rng, m, dx, dy):
    """Rows (by power of y) of unit coefficients, with no factor in x alone
    or y alone that proportional rows or columns would give."""
    while True:
        rows = [[rand_unit(rng, m) for _ in range(dx + 1)]
                for _ in range(dy + 1)]
        cols = list(zip(*rows))
        if not (proportional(rows[0], rows[1], m)
                or proportional(cols[0], cols[1], m)):
            return [[unit_vector(u, m) for u in row] for row in rows]


def gen_curves_cyc(rng):
    qs = []
    square = [[0], [0], [1]]
    for m in (5, 7):
        for i in range(8):
            k = rng.randrange(1, m)
            # x - z^k y, rows indexed by the power of y
            curve = [[[0], [1]], [_minus_zeta_power(k)]]
            qs.append(("curve_period",
                       {"m": m, "curve": curve, "f": square, "g": square,
                        "n_max": _order_of_two(m, k)},
                       {"period": _order_of_two(m, k)}))
            qs.append(("curve_image",
                       {"m": m, "curve": curve, "f": square, "g": square},
                       {"image": [[[0], [1]],
                                  [_minus_zeta_power(2 * k % m)]]}))
        for i in range(14):
            dx, dy = CURVE_SHAPES[i % len(CURVE_SHAPES)]
            f = [unit_vector(rand_unit(rng, m), m), [0], [1]]
            g = [unit_vector(rand_unit(rng, m), m), [0], [1]]
            qs.append(("curve_image", {"m": m, "curve": rand_curve(rng, m, dx, dy),
                                       "f": f, "g": g},
                       {"image": None}))
    return qs


GENERATORS = {
    "ritt_q": gen_ritt_q,
    "poly_large_q": gen_poly_large_q,
    "curves_cyc": gen_curves_cyc,
}


def generate(workload: str, seed: int) -> list:
    """The workload's query data for a seed: plain data, no library objects."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def size_profile(value):
    """`value` with each coefficient replaced by "c": what stays is its
    shape, the degrees and counts that a resize would change.  Ints outside
    a coefficient list (iteration counts, field orders) and strings stay;
    a list of ints is one cyclotomic coefficient."""
    if isinstance(value, dict):
        return {k: size_profile(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if value and all(type(x) is int for x in value):
            return "c"
        return [size_profile(x) for x in value]
    return "c" if isinstance(value, Fraction) else value


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# -- turning data into library calls with checks --------------------------------------

def _same(poly, coeffs) -> bool:
    return list(poly.coeffs) == Q.trim(coeffs)


class _Field:
    """Library objects for one field, plus the checks that need them."""

    def __init__(self, rk, m=None):
        self.rk = rk
        self.K = rk.QQ if m is None else rk.cyclotomic_field(m)

    def scalar(self, v):
        if self.K is self.rk.QQ:
            return Fraction(v)
        return self.rk.CycElem.from_vector(self.K, [Fraction(c) for c in v])

    def poly(self, coeffs):
        return self.rk.Poly.make(self.K, [self.scalar(c) for c in coeffs])

    def curve(self, rows):
        return self.rk.BivarCurve.make(
            self.rk.BivarPoly.make(self.K, [self.poly(r) for r in rows]))

    def recomposes(self, chains, F) -> bool:
        if not chains:
            return False
        for chain in chains:
            out = chain.factors[0]
            for h in chain.factors[1:]:
                out = self.rk.compose(out, h)
            if len(chain.factors) < 2 or out != F:
                return False
        return True

    def conjugates_to(self, ell, f, target) -> bool:
        return ell is not None and self.rk.conjugate(ell, f) == target

    def divides_pullback(self, G, H, f, g) -> bool:
        """G(x0, y) divides H(f(x0), g(y)) at two x0 where G keeps its y-degree."""
        rk, K = self.rk, self.K
        powers = [rk.Poly.constant(K, 1)]
        for _ in range(H.deg_y):
            powers.append(powers[-1] * g)
        good, t = 0, 2
        while good < 2 and t < 40:
            x0 = K.coerce(t)
            t += 1
            Gy = rk.Poly.make(K, [row.evaluate(x0) for row in G.rows])
            if Gy.degree != G.deg_y:
                continue
            u0 = f.evaluate(x0)
            P = rk.Poly(K, ())
            for j, row in enumerate(H.rows):
                P = P + powers[j].scale(row.evaluate(u0))
            if not rk.poly_divmod(P, Gy)[1].is_zero():
                return False
            good += 1
        return good == 2


def _ritt_q_query(b, kind, args, expect):
    rk = b.rk
    if kind == "complete_decompositions":
        F = b.poly(args["f"])
        return Query(kind, lambda: rk.complete_decompositions(F),
                     lambda r: b.recomposes(r, F))
    if kind == "classify":
        F = b.poly(args["f"])
        d = expect["degree"]
        power = rk.Poly.monomial(b.K, d)
        cheb = b.poly(Q.chebyshev(d))

        def check(r):
            if r.conj_to_power is not None and \
                    not b.conjugates_to(r.conj_to_power, F, power):
                return False
            if r.conj_to_pm_chebyshev is not None:
                sign, ell = r.conj_to_pm_chebyshev
                if not b.conjugates_to(ell, F, cheb.scale(sign)):
                    return False
            if expect["want"] == "power":
                return r.is_cyclic and r.conj_to_power is not None
            if expect["want"] == "chebyshev":
                return (r.conj_to_pm_chebyshev is not None
                        and (d < 3 or r.is_dihedral))
            return True
        return Query(kind, lambda: rk.classify(F), check)
    if kind == "gamma_group":
        A = b.poly(args["f"])
        sym = expect["symmetry"]

        def check(grp):
            els = grp.elements
            if grp.kind != "Finite" or not els or not els[0].is_identity():
                return False
            for ell, L in zip(els, grp.companions):
                if rk.compose(A, ell.to_poly()) != rk.compose(L.to_poly(), A):
                    return False
            return sym is None or any(e.a == sym[1] and e.b == sym[0]
                                      for e in els)
        return Query(kind, lambda: rk.gamma_group(A), check)
    if kind == "equivalence_witness":
        f, g = b.poly(args["f"]), b.poly(args["g"])

        def check(res):
            if res is None:
                return False
            L1, L2 = res
            return rk.compose(L2.to_poly(), rk.compose(f, L1.to_poly())) == g
        return Query(kind, lambda: rk.equivalence_witness(f, g), check)
    f, p, eta = b.poly(args["f"]), b.poly(args["p"]), b.poly(args["eta"])
    if kind == "solve_eta":
        # eta is unique only up to the linear symmetries of p, so check the
        # defining identity rather than the built eta
        fp = rk.compose(f, p)
        return Query(kind, lambda: rk.solve_eta(f, p),
                     lambda r: r is not None and rk.compose(p, r) == fp)

    def check(found):
        return (any(_same(r, args["p"]) for r in found)
                and all(rk.compose(f, r) == rk.compose(r, eta) for r in found))
    return Query(kind, lambda: rk.solve_intertwiner(f, eta, p.degree), check)


def _poly_large_q_query(b, kind, args, expect):
    rk = b.rk
    if kind == "iterate":
        f, m = b.poly(args["f"]), args["m"]

        def check(r):
            if r.degree != f.degree ** m:
                return False
            for t in (Fraction(1), Fraction(-1), Fraction(1, 2)):
                v = t
                for _ in range(m):
                    v = Q.evaluate(args["f"], v)
                if Q.evaluate(r.coeffs, t) != v:
                    return False
            return True
        return Query(kind, lambda: rk.iterate(f, m), check)
    if kind == "complete_decompositions":
        F = b.poly(args["f"])
        return Query(kind, lambda: rk.complete_decompositions(F),
                     lambda r: b.recomposes(r, F))
    if kind == "poly_gcd":
        A, B = b.poly(args["a"]), b.poly(args["b"])
        return Query(kind, lambda: rk.poly_gcd(A, B),
                     lambda r: _same(r, expect["gcd"]))
    if kind == "squarefree_part":
        F = b.poly(args["f"])
        return Query(kind, lambda: rk.poly.squarefree_part(F),
                     lambda r: not r.is_zero()
                     and Q.monic(list(r.coeffs)) == expect["part"])
    A, B = b.poly(args["a"]), b.poly(args["b"])
    return Query(kind, lambda: rk.resultant_univar(A, B),
                 lambda r: all(Q.mod_scalar(r, p) == v for p, v in expect["mod"]))


def _curves_cyc_query(b, kind, args, expect):
    rk = b.rk
    C, f, g = b.curve(args["curve"]), b.poly(args["f"]), b.poly(args["g"])
    if kind == "curve_period":
        n_max = args["n_max"]

        def check(cert):
            if cert is None or cert.period != expect["period"]:
                return False
            chain = cert.image_chain
            return (chain[0] == C and chain[-1] == C
                    and all(b.divides_pullback(chain[k].poly, chain[k + 1].poly,
                                               f, g)
                            for k in range(len(chain) - 1)))
        return Query(kind, lambda: rk.curve_period(C, f, g, n_max), check)
    if expect["image"] is not None:
        image = b.curve(expect["image"])
        return Query(kind, lambda: rk.curve_image(C, f, g),
                     lambda H: H == image)
    return Query(kind, lambda: rk.curve_image(C, f, g),
                 lambda H: b.divides_pullback(C.poly, H.poly, f, g))


def build(workload: str, data: list, rk) -> list:
    """Library queries, with checks, for the generated data."""
    if workload == "curves_cyc":
        fields = {}
        out = []
        for kind, args, expect in data:
            b = fields.setdefault(args["m"], _Field(rk, args["m"]))
            out.append(_curves_cyc_query(b, kind, args, expect))
        return out
    b = _Field(rk)
    make = _ritt_q_query if workload == "ritt_q" else _poly_large_q_query
    return [make(b, kind, args, expect) for kind, args, expect in data]


def warm_up_list(queries: list) -> list:
    """The first query of each kind."""
    seen, out = set(), []
    for q in queries:
        if q.kind not in seen:
            seen.add(q.kind)
            out.append(q)
    return out
