"""Desk-scale orbit experiments for split maps (x, y) -> (F1(x), F2(y)).

Exact orbits with a bit-size height cap, return sets against a plane
curve, mod-p return filters (a sound superset of the exact set for every
good prime), decomposition of index sets into arithmetic progressions,
and preperiodicity checks with escape certificates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .bivar import BivarCurve
from .errors import BadReductionError, ResourceCapError, RittKitError
from .field import int_horner, is_prime, scalar_abs
from .poly import Poly
from .record import Record

DEFAULT_HEIGHT_CAP = 4096

# Largest (N + 1) * (terms of F1, F2 and C) in return_set_modp, and that
# times the number of distinct primes in return_sets_modp: each orbit step
# reduces one Horner term per coefficient.  At the cap the slowest shape
# measured, x^2 with the line y - x (10 terms, N = 99,999), takes about
# 0.3 s; N = 10^6 took 2.6 s and printed a 7 MB line.
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
    field = F1.field
    x0 = field.coerce(alpha[0])
    y0 = field.coerce(alpha[1])
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


def _reduce_scalar(v, p: int, what: str) -> int:
    f = Fraction(v)
    if f.denominator % p == 0:
        raise BadReductionError(
            f"denominator of {what} is divisible by {p}")
    return f.numerator * pow(f.denominator, -1, p) % p


def _reduce_poly(f: Poly, p: int, what: str) -> list:
    if f.field.kind != "Rationals":
        raise BadReductionError(
            "mod-p reduction is only available over the rationals")
    coeffs = [_reduce_scalar(c, p, f"a coefficient of {what}") for c in f.coeffs]
    if coeffs and coeffs[-1] == 0:
        raise BadReductionError(
            f"leading coefficient of {what} vanishes mod {p} "
            "(degree not preserved)")
    return coeffs


def return_set_modp(F1: Poly, F2: Poly, alpha: tuple, C: BivarCurve,
                    p: int, N: int) -> tuple:
    """{n <= N : the orbit lands on C mod p}; a superset of the exact set."""
    if N < 0:
        raise RittKitError("N must be >= 0")
    if p == 2 or not is_prime(p):
        raise BadReductionError(f"{p} is not an odd prime")
    f1 = _reduce_poly(F1, p, "F1")
    f2 = _reduce_poly(F2, p, "F2")
    if C.field.kind != "Rationals":
        raise BadReductionError(
            "mod-p reduction is only available over the rationals")
    grid = [[_reduce_scalar(C.poly.coeff(i, j), p, "a coefficient of C")
             for i in range(C.deg_x + 1)] for j in range(C.deg_y + 1)]
    if all(c == 0 for row in grid for c in row):
        raise BadReductionError(f"curve polynomial vanishes mod {p}")
    _check_work(N, _terms(F1, F2, C), MODP_WORK_CAP)
    x0 = _reduce_scalar(alpha[0], p, "alpha")
    y0 = _reduce_scalar(alpha[1], p, "alpha")
    hits = []
    for n in range(N + 1):
        if not int_horner([int_horner(row, x0, p) for row in grid], y0, p):
            hits.append(n)
        if n < N:
            x0, y0 = int_horner(f1, x0, p), int_horner(f2, y0, p)
    return tuple(hits)


def return_sets_modp(F1: Poly, F2: Poly, alpha: tuple, C: BivarCurve,
                     primes, N: int) -> dict:
    """{p: return_set_modp(F1, F2, alpha, C, p, N)} over the distinct
    primes in ascending order; MODP_WORK_CAP bounds the whole call."""
    primes = sorted(set(primes))
    _check_work(N, _terms(F1, F2, C), MODP_WORK_CAP, len(primes))
    return {p: return_set_modp(F1, F2, alpha, C, p, N) for p in primes}


def _terms(F1: Poly, F2: Poly, C: BivarCurve) -> int:
    """Horner terms per orbit step: the coefficients of F1, F2 and C."""
    return len(F1.coeffs) + len(F2.coeffs) + (C.deg_x + 1) * (C.deg_y + 1)


def _check_work(N: int, terms: int, cap: int, primes: int = 1):
    """Refuse, before it starts, a loop whose work passes `cap`: N + 1
    orbit steps, each reducing `terms` Horner terms once per prime."""
    if primes * (N + 1) * terms > cap:
        count = "" if primes == 1 else f"{primes} primes*"
        raise ResourceCapError(
            f"N = {N}: {count}(N + 1)*{terms} Horner terms exceeds cap "
            f"{cap}")


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
