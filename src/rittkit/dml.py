"""Desk-scale orbit experiments for split maps (x, y) -> (F1(x), F2(y)).

Exact orbits with a bit-size height cap, return sets against a plane
curve, mod-p return filters (a sound superset of the exact set at the
good degree-1 primes of Q or Q(zeta m)), decomposition of index sets into
arithmetic progressions, and preperiodicity checks with escape certificates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .bivar import BivarCurve
from .errors import (BadReductionError, FieldMismatchError, ResourceCapError,
                     RittKitError)
from .field import (int_horner, is_prime, reduce_mod, scalar_abs,
                    splitting_tables)
from .poly import Poly
from .record import Record

DEFAULT_HEIGHT_CAP = 4096

# Largest phi(m)*(N + phi(m))*(terms of F1, F2 and C) in return_set_modp,
# and that times the number of distinct primes in return_sets_modp: at each
# of the phi(m) maps zeta -> w per prime (one over Q) an orbit step reduces
# one Horner term per coefficient, and the reduction to F_p, phi(m)
# products per coefficient, counts as phi(m) - 1 more steps.  At the cap,
# x^2 with the line y - x over Q (10 terms, N = 99,999) takes about 0.3 s.
MODP_WORK_CAP = 1_000_000

# Largest (N + 1) * (terms of F1 and F2, and of C for return_set_exact)
# * phi(m) in orbit and return_set_exact: each exact orbit step evaluates
# F1 and F2, and a return set tests the point against C, one Horner term
# per coefficient, which over Q(zeta m) has phi(m) rational coordinates.
# The README lists the slowest shapes measured at the cap.
ORBIT_WORK_CAP = 100_000


def _height_bits(v) -> int:
    fr = getattr(v, "coeffs", None)
    if fr is not None:
        return max((_height_bits(c) for c in fr), default=0)
    f = Fraction(v)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


class OrbitPoint(Record):
    index: int
    point: tuple


class Orbit(Record):
    points: tuple  # OrbitPoint
    truncated_at: int | None  # first index not computed, if capped


def orbit(F1: Poly, F2: Poly, alpha: tuple, N: int,
          height_cap: int = DEFAULT_HEIGHT_CAP) -> Orbit:
    """Exact orbit points up to index N, truncating at the height cap."""
    if N < 0:
        raise RittKitError("N must be >= 0")
    if height_cap < 1:
        raise RittKitError("height_cap must be >= 1")
    _check_work(N, (len(F1.coeffs) + len(F2.coeffs)) * F1.field.degree,
                ORBIT_WORK_CAP)
    x0, y0 = map(F1.field.coerce, alpha)
    pts = []
    for n in range(N + 1):
        if max(_height_bits(x0), _height_bits(y0)) > height_cap:
            return Orbit(tuple(pts), truncated_at=n)
        pts.append(OrbitPoint(n, (x0, y0)))
        if n < N:
            x0 = F1.evaluate(x0)
            y0 = F2.evaluate(y0)
    return Orbit(tuple(pts), truncated_at=None)


class ReturnSet(Record):
    indices: tuple  # sorted return indices
    truncated_at: int | None


def return_set_exact(F1: Poly, F2: Poly, alpha: tuple, C: BivarCurve,
                     N: int, height_cap: int = DEFAULT_HEIGHT_CAP) -> ReturnSet:
    """{n <= N : the orbit point lands on C exactly}."""
    _check_work(N, _terms(F1, F2, C) * F1.field.degree, ORBIT_WORK_CAP)
    orb = orbit(F1, F2, alpha, N, height_cap)
    hits = tuple(p.index for p in orb.points
                 if C.contains(p.point[0], p.point[1]))
    return ReturnSet(hits, orb.truncated_at)


def _reduced(coeffs, p: int, powers, what: str, lead: str = "") -> list:
    """coeffs at P by `field.reduce_mod`; a map named by `lead` must keep
    its degree."""
    out = reduce_mod(coeffs, p, powers)
    if out is None:
        raise BadReductionError(f"denominator of {what} is divisible by {p}")
    if lead and out and not out[-1]:
        raise BadReductionError(f"leading coefficient of {lead} vanishes "
                                f"mod {p} (degree not preserved)")
    return out


def return_set_modp(F1: Poly, F2: Poly, alpha: tuple, C: BivarCurve,
                    p: int, N: int) -> tuple:
    """{n <= N : the orbit lands on C mod every P = (p, zeta - w), w a root
    of Phi_m mod p = 1 (mod m); P = (p) over Q}.  Reduction at P is a ring
    map, so this contains the exact set, whatever the order of the roots."""
    if N < 0:
        raise RittKitError("N must be >= 0")
    field = F1.field
    if F2.field != field or C.field != field:
        raise FieldMismatchError("F1, F2 and C must share one field")
    alpha = list(map(field.coerce, alpha))
    if p == 2 or not is_prime(p):
        raise BadReductionError(f"{p} is not an odd prime")
    m = field.order
    if m and p % m != 1:
        raise BadReductionError(
            f"{p} is not 1 mod {m}: {field} does not split completely at it")
    _check_work(N, _terms(F1, F2, C), MODP_WORK_CAP, maps=field.degree)
    hits = set(range(N + 1))
    for powers in splitting_tables(m, p)[0] if m else [(1,)]:
        f1 = _reduced(F1.coeffs, p, powers, "a coefficient of F1", "F1")
        f2 = _reduced(F2.coeffs, p, powers, "a coefficient of F2", "F2")
        rows = [_reduced(r.coeffs, p, powers, "a coefficient of C")
                for r in C.poly.rows]
        if not any(map(any, rows)):
            raise BadReductionError(f"curve polynomial vanishes mod {p}")
        x0, y0 = _reduced(alpha, p, powers, "alpha")
        for n in range(N + 1):
            if n in hits and int_horner(
                    [int_horner(r, x0, p) for r in rows], y0, p):
                hits.discard(n)
            if n < N:
                x0, y0 = int_horner(f1, x0, p), int_horner(f2, y0, p)
    return tuple(sorted(hits))


def return_sets_modp(F1: Poly, F2: Poly, alpha: tuple, C: BivarCurve,
                     primes, N: int) -> dict:
    """{p: return_set_modp(F1, F2, alpha, C, p, N)} over the distinct
    primes in ascending order; MODP_WORK_CAP bounds the whole call."""
    primes = sorted(set(primes))
    _check_work(N, _terms(F1, F2, C), MODP_WORK_CAP, len(primes),
                F1.field.degree)
    return {p: return_set_modp(F1, F2, alpha, C, p, N) for p in primes}


def _terms(F1: Poly, F2: Poly, C: BivarCurve) -> int:
    """Horner terms per orbit step: the coefficients of F1, F2 and C."""
    return len(F1.coeffs) + len(F2.coeffs) + (C.deg_x + 1) * (C.deg_y + 1)


def _check_work(N: int, terms: int, cap: int, primes: int = 1,
                maps: int = 1):
    """Refuse, before it starts, a loop whose work passes `cap`: per prime,
    `maps` maps of N + 1 orbit steps of `terms` Horner terms, after a
    reduction that costs maps - 1 steps more."""
    if primes * maps * (N + maps) * terms > cap:
        count = "" if primes == 1 else f"{primes} primes*"
        raise ResourceCapError(
            f"N = {N}: {count}(N + {maps})*{maps * terms} Horner terms "
            f"exceeds cap {cap}")


class Progression(Record):
    a: int
    b: int  # b = 0 is a singleton {a}

    def members(self, horizon: int) -> set:
        if self.b == 0:
            return {self.a} if self.a <= horizon else set()
        return set(range(self.a, horizon + 1, self.b))


def progression_decompose(S, horizon: int):
    """Minimal progressions whose union on [0, horizon] equals S, or None.

    Searches eventual periodicity of the characteristic sequence with
    period <= horizon // 3; among the fits, the fewest progressions win,
    then the lexicographically smallest list.  Each fit regenerates S:
    bits has period per from tail on, and tail + per <= horizon.

    One pass finds every tail: with z[per] the longest common prefix of
    the reversed bits and their shift by per (Gusfield 1997), bits[i] ==
    bits[i + per] holds exactly for i >= horizon + 1 - per - z[per].  The
    fit at per lists a singleton for each member below the tail and a
    progression for each member in [tail, tail + per): in order, the
    first j members of S, j = |S below tail + per|.  So fits of one count
    j differ only in the steps, i zeros (the singletons) and then j - i
    copies of per, and the least list is the least key (j, -i, per).
    """
    S = set(S)
    if any(n < 0 or n > horizon for n in S):
        raise RittKitError("S must lie in [0, horizon]")
    bits = [1 if n in S else 0 for n in range(horizon + 1)]
    below = list(accumulate(bits, initial=0))  # below[t] = |S below t|
    tails = [horizon + 1 - per - z for per, z in
             enumerate(_common_prefixes(bits[::-1], horizon // 3 + 1))]
    # both the preperiod and the period must fit well inside the horizon,
    # otherwise any set decomposes into stray singletons
    best = min(((below[t + per], -below[t], per) for per, t in enumerate(tails)
                if per and t <= horizon // 3 and t + per <= horizon),
               default=None)
    if best is None:
        return None
    j, minus_i, per = best
    return [Progression(a, 0 if k < -minus_i else per)
            for k, a in enumerate(sorted(S)[:j])]


def _common_prefixes(s: list, m: int) -> list:
    """z[k] = the longest common prefix of s and s[k:], for k < m: the
    Z-algorithm (Gusfield 1997), in time linear in len(s)."""
    z = [len(s)] + [0] * (m - 1)
    left = right = 0  # s[left:right] matches s[:right - left]
    for k in range(1, m):
        n = min(right - k, z[k - left]) if k < right else 0
        while k + n < len(s) and s[n] == s[k + n]:
            n += 1
        z[k] = n
        if k + n > right:
            left, right = k, k + n
    return z


class EscapeCertificate(Record):
    index: int
    radius: Fraction
    value: object  # orbit value at index, with |value| >= radius

    def verify(self, f: Poly, steps: int = 5) -> bool:
        """Exactly re-check strict growth for a few further iterations."""
        cur = self.value
        if scalar_abs(cur) < self.radius:
            return False
        for _ in range(steps):
            nxt = f.evaluate(cur)
            if not scalar_abs(nxt) > scalar_abs(cur):
                return False
            cur = nxt
        return True


class PreperiodicResult(Record):
    kind: str  # "Preperiodic" | "Escape" | "Unknown"
    tail: int | None = None
    period: int | None = None
    certificate: EscapeCertificate | None = None


def _escape_radius(f: Poly) -> Fraction:
    """|x| >= radius implies |f(x)| >= 2|x|, from coefficient dominance:
    |f(x)| >= |x|^(d-1)*(|lc|*|x| - sum |f_i|) >= 2|x|^(d-1), so an
    `EscapeCertificate` there verifies."""
    total = sum((abs(Fraction(f.coeff(i))) for i in range(f.degree)),
                Fraction(0))
    return max(Fraction(1), (total + 2) / abs(Fraction(f.leading())))


def preperiodic_check(f: Poly, a, N: int,
                      height_cap: int = DEFAULT_HEIGHT_CAP) -> PreperiodicResult:
    """Detect a repeat (preperiodic), certified escape, or give up."""
    if N < 1:
        raise RittKitError("N must be >= 1")
    if height_cap < 1:
        raise RittKitError("height_cap must be >= 1")
    if f.degree < 2:
        raise RittKitError("preperiodic_check needs degree >= 2")
    field = f.field
    cur = field.coerce(a)
    rational = field.kind == "Rationals"
    radius = _escape_radius(f) if rational else None
    seen = {}
    for n in range(N + 1):
        if cur in seen:
            i = seen[cur]
            return PreperiodicResult("Preperiodic", tail=i, period=n - i)
        if rational and scalar_abs(cur) >= radius:
            return PreperiodicResult("Escape", certificate=EscapeCertificate(
                index=n, radius=radius, value=cur))
        if _height_bits(cur) > height_cap:
            return PreperiodicResult("Unknown")
        seen[cur] = n
        cur = f.evaluate(cur)
    return PreperiodicResult("Unknown")
