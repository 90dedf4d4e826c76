"""Exact coefficient fields: Q and the cyclotomic fields Q(zeta_m).

Rational scalars are plain `fractions.Fraction`; cyclotomic scalars are
`CycElem` integer vectors over one common denominator, reduced modulo the
m-th cyclotomic polynomial.  Every operation is exact; nothing here ever
rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, repeat, zip_longest
from math import gcd, lcm
from operator import mul

from .errors import FieldMismatchError, ResourceCapError, RittKitError
from .record import Record, slot_setters

RATIONALS = "Rationals"
CYCLOTOMIC = "Cyclotomic"

# Largest degree phi(m) of an accepted field Q(zeta m).  A CycElem product
# costs about phi(m)^2 integer operations, and the m roots of unity of the
# field about m*phi(m)^2; the largest order admitted is m = 1050.
CYCLOTOMIC_DEGREE_CAP = 256


# Below this many terms per operand an integer schoolbook product beats the
# packing of the Kronecker product in int_mul.  CycElem products always take
# the integer schoolbook loop of dense_mul.
KRONECKER_MIN_LEN = 8


def power(x, e: int, one, mul):
    """x^e (e >= 0) by square and multiply from `one`, with the product
    `mul`: the products run in the order of e's bits, low to high, and the
    square after the top bit, which nothing uses, is skipped."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def dense_mul(a, b, zero, top=None) -> list:
    """Product of ascending coefficient lists.

    With top given, only the terms of degree 0..top are computed.  Rational
    lists (zero a Fraction) are multiplied as integer vectors over their
    denominators (int_mul), whatever their length, cyclotomic ones as
    integer vectors by one ring_dot a term; the rest by schoolbook.
    """
    if top is not None:
        a, b = a[:top + 1], b[:top + 1]
    n = len(a) + len(b) - 1 if top is None else top + 1
    if type(zero) is Fraction:
        (ia, da), (ib, db) = int_vector(a), int_vector(b)
        den = da * db
        out = [Fraction(c, den) for c in int_mul(ia, ib)[:n]]
        return out + [zero] * (n - len(out))
    if type(zero) is CycElem:
        (va, da), (vb, db) = int_vectors(a), int_vectors(b)
        return [zero.field.from_ints(ring_dot(
            va[max(0, k - len(vb) + 1):], vb[min(k, len(vb) - 1)::-1],
            zero.field.order), da * db) for k in range(n)]
    out = [zero] * max(n, 0)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                if i + j >= n:
                    break
                out[i + j] += ai * bj
    return out


def int_vector(coeffs) -> tuple:
    """(ints, den) with coeffs[i] == ints[i] / den, den the lcm of denominators."""
    # A list, not a generator: math.lcm(*generator) leaks the argument
    # tuple on CPython 3.11.
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def int_vectors(coeffs) -> tuple:
    """(vecs, den) with coeffs[i] == vecs[i]/den coordinatewise, den the
    lcm of the denominators: one integer per coordinate of a CycElem, one
    for an int or a Fraction."""
    pairs = [(c.nums, c.den) if type(c) is CycElem
             else ((c.numerator,), c.denominator) for c in coeffs]
    den = lcm(*[d for _, d in pairs])
    return [[x * (den // d) for x in nums] for nums, d in pairs], den


def int_mul(a, b) -> list:
    """Product of two integer lists: schoolbook when either has fewer than
    KRONECKER_MIN_LEN terms, else one big-integer product.

    Each integer vector is packed into base 2^w digits offset by 2^(w-1),
    so that signed coefficients never borrow across digits (Harvey 2009,
    Kronecker substitution); w leaves room for every product coefficient.
    """
    if min(len(a), len(b)) < KRONECKER_MIN_LEN:
        return dense_mul(a, b, 0)
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length())
    k = bits // 8 + 1                      # bytes per digit: |c| < 2^(8k-1)
    half = 1 << (8 * k - 1)
    digit_half = bytes(k - 1) + b"\x80"     # half as one little-endian digit

    def pack(ints):
        raw = b"".join((x + half).to_bytes(k, "little") for x in ints)
        return (int.from_bytes(raw, "little")
                - int.from_bytes(digit_half * len(ints), "little"))

    full = len(a) + len(b) - 1
    prod = pack(a) * pack(b) + int.from_bytes(digit_half * full, "little")
    raw = prod.to_bytes(full * k, "little")
    return [int.from_bytes(raw[i:i + k], "little") - half
            for i in range(0, full * k, k)]


def dense_divmod(a, b) -> tuple:
    """Long division of ascending coefficient lists: (q, r), len(r) < len(b).

    b[-1] is 1 or a nonzero field scalar (Fraction or CycElem).  A monic b
    takes no division step, so integer input stays integer and a monic
    gcd candidate is tested without an inverse.  A rational b of degree 2 or more
    divides integer vectors (_int_long_division): each quotient term is one
    Fraction at the scale of its own step, each remainder term one Fraction
    at the end.  Below degree 2 the Fraction loop is cheaper, as the scales
    of a long quotient grow into every term.
    """
    db = len(b) - 1
    if type(b[-1]) is Fraction and db >= 2:
        r, den = int_vector(a)
        ib, den_b = int_vector(b)
        q = []
        for c, s in zip(*_int_long_division(r, ib)):
            den *= s
            q.append(Fraction(c * den_b, den))
        return q[::-1], [Fraction(x, den) for x in r]
    inv = None if b[-1] == 1 else 1 / b[-1]
    terms = [(j, bj) for j, bj in enumerate(b[:db]) if bj]
    rem = list(a)
    q = [None] * (len(rem) - db)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + db] if inv is None else rem[k + db] * inv
        q[k] = c
        if c:
            for j, bj in terms:
                rem[k + j] -= c * bj
    return q, rem[:db]


def dense_digits(a, b) -> list | None:
    """The constant b-adic digits of a, lowest first, or None.

    a = d_0 + d_1*b + ... + d_e*b^e with e = deg a / deg b (deg b >= 1
    divides deg a) and every d_j a scalar, read off the remainders of the
    repeated division by b (von zur Gathen 1990); the first remainder that
    is not constant ends the search.  Over Q the chain runs on integers:
    with b = B/den_b, a = sum G_j*B^j for G_j = d_j/den_b^j, and each
    int_pseudo_divmod step f*A = A'*B + r keeps one running denominator,
    so each digit is one Fraction at the end.
    """
    db = len(b) - 1
    e = (len(a) - 1) // db
    if type(b[-1]) is not Fraction:
        digits = []
        for _ in range(e):
            a, r = dense_divmod(a, b)
            if any(r[1:]):
                return None
            digits.append(r[0])
        return digits + [a[0]]
    A, den = int_vector(a)
    B, den_b = int_vector(b)
    nums = []
    for _ in range(e):
        f, A, r = int_pseudo_divmod(A, B)
        if len(r) > 1:
            return None
        den *= f
        nums.append((r[0] if r else 0, den))
    nums.append((A[0], den))
    return [Fraction(c * den_b ** j, d) for j, (c, d) in enumerate(nums)]


def _int_long_division(r, b) -> tuple:
    """Divide the integer list r by b in place: (quotient terms, scales).

    Integer arithmetic only: each step scales by lc(b)/gcd(c, lc(b)), the
    least factor that makes the next quotient term c an integer.  Only the
    len(b) - 1 terms under b are scaled at each step; a term of r below
    them takes the product of the factors when b reaches it, so a long r
    over a short b costs about len(r)*len(b) products, not len(r)^2.  Both
    lists run from the top step down; r is left holding the remainder
    times the product of all scales.
    """
    db = len(b) - 1
    lb = b[-1]
    terms = [(j, bj) for j, bj in enumerate(b[:db]) if bj]
    q, scales, f = [], [], 1
    for k in range(len(r) - 1 - db, -1, -1):
        r[k] *= f                           # r[k+1:] are at scale f already
        c = r.pop()
        s = 1
        if c:
            g = gcd(c, lb)
            s, c = lb // g, c // g
            if s != 1:
                for i in range(k, k + db):
                    r[i] *= s
                f *= s
            for j, bj in terms:
                r[k + j] -= c * bj
        q.append(c)
        scales.append(s)
    return q, scales


def int_pseudo_divmod(a, b) -> tuple:
    """(f, q, r) with f*a == q*b + r over the integers, r trimmed.

    One _int_long_division; each quotient term then takes the product of
    the later steps' scales, so that all of q sits at the one scale f.
    """
    r = list(a)
    q, scales = _int_long_division(r, b)
    f = 1
    for i in range(len(q) - 1, -1, -1):
        q[i] *= f
        f *= scales[i]
    return f, q[::-1], _trim(r)


def int_horner(ints: list, v: int, mod: int = 0) -> int:
    """The value at v of an integer polynomial, reduced mod `mod` if given."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * v + c) % mod if mod else acc * v + c
    return acc


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m must be positive")
    # x^m - 1 divided by the product of Phi_d over proper divisors d of m.
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = dense_divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_table(m) -> tuple:
    """(phi(m), ((i, -c_i) for the nonzero c_i, i < phi(m), of Phi_m)):
    t^phi(m) == sum of -c_i*t^i modulo Phi_m; Q (m None) is Q(zeta 1)."""
    phi = cyclotomic_polynomial(m or 1)
    d = len(phi) - 1
    return d, tuple((i, -c) for i, c in enumerate(phi[:d]) if c)


def phi_reduce(nums: list, m) -> list:
    """An integer list reduced modulo Phi_m in place, to <= phi(m) terms:
    modulo t^m - 1 (t^k folds onto t^(k - m)), then top down by _phi_table
    (t^k = t^(k - phi(m))*t^phi(m), one step for prime m); Q has m None."""
    d, table = _phi_table(m)
    if len(nums) > d:
        for k in range(len(nums) - 1, m - 1, -1):
            nums[k - m] += nums.pop()
        for k in range(len(nums) - 1, d - 1, -1):
            c = nums.pop()
            if c:
                for i, e in table:
                    nums[k - d + i] += c * e
    return nums


def ring_dot(xs, ys, m, start=()) -> list:
    """start + sum of x*y over pairs of integer vectors from xs and ys in
    Z[t]/Phi_m (Z over Q), phi(m) integers: one sum, one phi_reduce."""
    d = _phi_table(m)[0]
    acc = [*start] + [0] * (2 * d - 1 - len(start))
    for x, y in zip(xs, ys):
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    acc[j] += a * b
    return phi_reduce(acc, m)


def euler_phi(m: int) -> int:
    """Euler's totient of m >= 1, by trial division."""
    out, n, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all twelve bases (Sorenson and Webster
# 2015): below it the Miller-Rabin test on `_MR_BASES` is exact.
PRIME_TEST_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin on the first 12 primes as bases.

    Exact for n < PRIME_TEST_BOUND; an n at or above it raises
    ResourceCapError.
    """
    if n >= PRIME_TEST_BOUND:
        raise ResourceCapError(
            f"primality of {n} is not certified at or above "
            f"PRIME_TEST_BOUND = {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # a composite this small has a factor among the bases
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(p: int) -> int:
    p += 1
    while not is_prime(p):
        p += 1
    return p


# -- splitting primes: Z[zeta_m] modulo p = 1 (mod m) is F_p^phi(m) ----------

# The primes p = 1 (mod m) found so far for each m, filled on demand.
_SPLITTING_PRIMES: dict = {}


def splitting_primes(m: int):
    """The primes p = 1 (mod m) above 2^29, in increasing order, endless.

    Phi_m splits into phi(m) distinct linear factors mod such a p.  For
    every order the fields admit, about 10^5 of them or more lie below
    2^30, where every residue is one 30-bit CPython digit.  The list is
    built on first use and cached.
    """
    primes = _SPLITTING_PRIMES.setdefault(m, [])
    for k in count():
        if k == len(primes):
            p = (primes[-1] if primes else 2 ** 29 // m * m + 1) + m
            while not is_prime(p):
                p += m
            primes.append(p)
        yield primes[k]


# Most (m, p) pairs whose splitting_tables stay cached: a table holds about
# 2*phi(m)^2 residues (4 MB at phi(m) = 240); a gcd reads its first few.
SPLITTING_TABLES_CACHED = 8


@lru_cache(maxsize=SPLITTING_TABLES_CACHED)
def splitting_tables(m: int, p: int) -> tuple:
    """(powers, inverse) for a prime p = 1 (mod m) and the phi(m) roots
    w_i of Phi_m mod p, taken as w^k for one w of order m and each k < m
    prime to m, in increasing k.

    powers[i][j] = w_i^j mod p for j < phi(m), so a coordinate vector
    takes its value at w_i by one dot product (reduce_mod).  inverse is
    the inverse of that Vandermonde matrix: the vector with the values
    y_i at the w_i has coordinate j = sum_i inverse[j][i]*y_i.  Column i
    of it is the Lagrange polynomial Phi_m/((t - w_i)*Phi_m'(w_i)) mod p,
    1 at w_i and 0 at the other roots.
    """
    phi = [c % p for c in cyclotomic_polynomial(m)]
    d = len(phi) - 1
    factors = [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]
    for g in count(2):
        w = pow(g, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in factors):
            break
    powers, columns = [], []
    for k in range(1, m):
        if gcd(k, m) != 1:
            continue
        r = pow(w, k, p)
        row = [1]
        for _ in range(d - 1):
            row.append(row[-1] * r % p)
        powers.append(row)
        quo, acc = [0] * d, 1            # Phi_m/(t - r), top down
        for j in range(d - 1, -1, -1):
            quo[j] = acc
            acc = (phi[j] + acc * r) % p
        scale = pow(sum(map(mul, quo, row)), -1, p)
        columns.append([c * scale % p for c in quo])
    return powers, [list(r) for r in zip(*columns)]


def reduce_mod(coeffs, p: int, powers=(1,)) -> list | None:
    """The images in F_p of ints, Fractions or CycElems at the prime
    P = (p, zeta - w), powers = [w^j mod p] ((p) and (1,) over Q): each
    sum_j nums_j*w^j times den^-1, or None when p divides a denominator.
    One inverse serves all: den^-1 = (D/den)*D^-1, D the lcm of all den."""
    vecs = [(c.nums, c.den) if type(c) is CycElem
            else ((c.numerator,), c.denominator) for c in coeffs]
    D = lcm(*[den for _, den in vecs])
    if D == 1:
        return [sum(map(mul, nums, powers)) % p for nums, _ in vecs]
    if not D % p:
        return None
    inv = pow(D, -1, p)
    return [sum(map(mul, nums, powers)) * (D // den) % p * inv % p
            for nums, den in vecs]


class FieldDescriptor(Record):
    __slots__ = ("kind", "order")
    kind: str
    order: int | None

    def __init__(self, kind: str, order: int | None = None):
        if kind == RATIONALS:
            if order is not None:
                raise ValueError("Rationals carries no order")
        elif kind == CYCLOTOMIC:
            if order is None or order < 1:
                raise ValueError("cyclotomic order must be a positive integer")
            if order in (1, 2):
                raise ValueError("Q(zeta_1) and Q(zeta_2) are Q; use Rationals")
            # phi(m) >= sqrt(m/2), so a larger m needs no factoring.
            if (order > 2 * CYCLOTOMIC_DEGREE_CAP ** 2
                    or euler_phi(order) > CYCLOTOMIC_DEGREE_CAP):
                raise ResourceCapError(
                    f"Q(zeta {order}) has degree phi({order}) above "
                    f"the cyclotomic degree cap CYCLOTOMIC_DEGREE_CAP = "
                    f"{CYCLOTOMIC_DEGREE_CAP}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        _set_kind(self, kind)
        _set_order(self, order)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return (self.kind, self.order) == (other.kind, other.order)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.order))

    @property
    def degree(self) -> int:
        if self.kind == RATIONALS:
            return 1
        return len(cyclotomic_polynomial(self.order)) - 1

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def from_ints(self, nums: list, den: int):
        """The scalar nums/den, den > 0, from a fresh integer list."""
        if self.kind == RATIONALS:
            return Fraction(nums[0], den)
        return CycElem._make(self, nums, den)

    def zeta(self):
        if self.kind == RATIONALS:
            raise RittKitError("Q has no cyclotomic generator")
        return CycElem._make(self, [0, 1], 1)

    def coerce(self, v):
        if self.kind == RATIONALS:
            if isinstance(v, CycElem):
                r = v.as_rational()
                if r is None:
                    raise FieldMismatchError("cyclotomic value is not rational")
                return r
            return v if type(v) is Fraction else Fraction(v)
        if isinstance(v, CycElem):
            if v.field != self:
                raise FieldMismatchError("cyclotomic orders differ")
            return v
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        return CycElem._make(self, [v.numerator], v.denominator)

    def __str__(self):
        if self.kind == RATIONALS:
            return "Q"
        return f"Q(zeta {self.order})"


_set_kind, _set_order = slot_setters(FieldDescriptor)
QQ = FieldDescriptor(RATIONALS)


def cyclotomic_field(m: int) -> FieldDescriptor:
    if m in (1, 2):
        return QQ
    return FieldDescriptor(CYCLOTOMIC, m)


class CycElem:
    """Element of Q(zeta_m), a vector modulo the m-th cyclotomic polynomial.

    Stored as integer numerators `nums` over one positive denominator `den`
    with gcd(den, *nums) == 1, so equal elements have equal (nums, den).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: FieldDescriptor, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != field.degree:
            raise ValueError("coefficient vector has wrong length")
        nums, den = int_vector(coeffs)
        self.field, self.nums, self.den = field, tuple(nums), den

    # -- construction helpers ------------------------------------------
    @classmethod
    def _make(cls, field, nums, den):
        """Canonical element nums/den from a fresh list nums of any length,
        reduced modulo Phi_m in place by phi_reduce."""
        d = _phi_table(field.order)[0]
        if len(nums) > d:
            phi_reduce(nums, field.order)
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [n // g for n in nums], den // g
        out = object.__new__(cls)
        out.field, out.den = field, den
        out.nums = tuple(nums) + (0,) * (d - len(nums))
        return out

    @classmethod
    def from_vector(cls, field, vec):
        """Reduce an arbitrary-length ascending vector modulo Phi_m."""
        return cls._make(field, *int_vector(vec))

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def as_rational(self):
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    # -- arithmetic -----------------------------------------------------
    def _coerced(self, other):
        if isinstance(other, CycElem):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return None

    def _sum(self, o, sign):
        if self.den == o.den:
            nums = [a + sign * b for a, b in zip(self.nums, o.nums)]
            return CycElem._make(self.field, nums, self.den)
        da, db = self.den, o.den
        nums = [a * db + sign * b * da for a, b in zip(self.nums, o.nums)]
        return CycElem._make(self.field, nums, da * db)

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._sum(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycElem._make(self.field, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._sum(o, -1)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o._sum(self, -1)

    def __mul__(self, other):
        # a rational operand scales the other: no reduction modulo Phi_m
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        if not any(b[1:]):
            nums = [x * b[0] for x in a]
        elif not any(a[1:]):
            nums = [x * a[0] for x in b]
        else:
            nums = dense_mul(a, b, 0)
        return CycElem._make(self.field, nums, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return (self ** (-e)).inverse()
        return power(self, e, self.field.one(), mul)

    def inverse(self):
        """1/self: den/n for a rational n/den, else _sequence_inverse."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if any(self.nums[1:]):
            return self._sequence_inverse()
        n = self.nums[0]
        return CycElem._make(self.field, [-self.den if n < 0 else self.den],
                             abs(n))

    def _sequence_inverse(self):
        """1/self by an extended primitive remainder sequence in Z[t].

        Rows (r, s, c) satisfy c*s*nums == r mod Phi_m with r and s
        primitive integer vectors and c a Fraction, so the vectors never
        hold a Fraction (Collins 1967; Brown 1971).
        """
        r0, s0, c0 = list(cyclotomic_polynomial(self.field.order)), [], 1
        r1, s1, c1 = _trim(list(self.nums)), [1], Fraction(1)
        while len(r1) > 1:
            f, q, r = int_pseudo_divmod(r0, r1)
            # f*r0 - q*r1 == r, so (f*c0*s0 - c1*q*s1)*nums == r mod Phi_m.
            a = f * c0.numerator * c1.denominator
            b = c1.numerator * c0.denominator
            s = [a * u - b * v for u, v in
                 zip_longest(s0, dense_mul(q, s1, 0), fillvalue=0)]
            gr, gs = gcd(*r), gcd(*s)
            c = Fraction(gs, c0.denominator * c1.denominator * gr)
            r0, s0, c0 = r1, s1, c1
            r1, s1, c1 = [u // gr for u in r], [v // gs for v in s], c
        scale = self.den * c1 / r1[0]
        return CycElem._make(self.field, [scale.numerator * u for u in s1],
                             scale.denominator)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.inverse() if other == 1 else o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        if not isinstance(other, CycElem) or other.field != self.field:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.field, self.nums, self.den))

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return f"CycElem({self.field}, {scalar_str(self)})"

    def __str__(self):
        return scalar_str(self)


def _trim(v):
    while v and not v[-1]:
        v.pop()
    return v


# ---------------------------------------------------------------------------
# Scalar utilities shared across modules.
# ---------------------------------------------------------------------------

def as_rational(v):
    """Return the Fraction a scalar embeds from Q, or None."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, CycElem):
        return v.as_rational()
    return None


def scalar_sort_key(v):
    r = as_rational(v)
    if r is not None:
        return (0, r, ())
    return (1, Fraction(0), v.coeffs)


def scalar_str(v) -> str:
    r = as_rational(v)
    if r is not None:
        return str(r)
    parts = []
    for i, c in enumerate(v.coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            zp = "z" if i == 1 else f"z^{i}"
            if c == 1:
                parts.append(zp)
            elif c == -1:
                parts.append(f"-{zp}")
            else:
                parts.append(f"{c}*{zp}")
    return signed_join(parts)


def signed_join(terms: list) -> str:
    """The terms as a sum ("0" for none), " - " replacing a term's "-"."""
    out = terms[0] if terms else "0"
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


@lru_cache(maxsize=None)
def roots_of_unity(field: FieldDescriptor) -> tuple:
    """The M roots of unity of the field as the powers u^j, j < M, of u =
    -1 over Q, zeta for even m and -zeta for odd m (M = 2, m and 2m)."""
    if field.kind == RATIONALS:
        return (Fraction(1), Fraction(-1))
    m = field.order
    u = field.zeta() if m % 2 == 0 else -field.zeta()
    return tuple(accumulate(repeat(u, m * (1 + m % 2) - 1), mul,
                            initial=field.one()))


@lru_cache(maxsize=None)
def unity_exponents(field: FieldDescriptor) -> dict:
    """{u^j: j} for the roots of unity u^j of `roots_of_unity(field)`."""
    return {w: j for j, w in enumerate(roots_of_unity(field))}


def _int_nth_root(x: int, n: int):
    """Exact integer n-th root of x >= 0, or None."""
    if x < 0:
        raise ValueError
    if x in (0, 1):
        return x
    # integer Newton from 2^ceil(bits/n) >= x^(1/n) descends to the floor root
    r = 1 << -(-x.bit_length() // n)
    while True:
        y = ((n - 1) * r + x // r ** (n - 1)) // n
        if y >= r:
            return r if r ** n == x else None
        r = y


def rational_nth_roots(c: Fraction, n: int) -> list:
    """All rational x with x^n = c."""
    c = Fraction(c)
    if n <= 0:
        raise ValueError("n must be positive")
    if c == 0:
        return [Fraction(0)]
    neg = c < 0
    if neg and n % 2 == 0:
        return []
    num = _int_nth_root(abs(c.numerator), n)
    den = _int_nth_root(abs(c.denominator), n)
    if num is None or den is None:
        return []
    r = Fraction(num, den)
    if n % 2 == 1:
        return [-r] if neg else [r]
    return [r, -r]


def nth_roots(c, n: int, field: FieldDescriptor) -> list:
    """All in-field x with x^n = c that have the form (rational)*(root of unity).

    For n = 1 that is c itself, whatever its form.  Over Q this is
    complete.  Over Q(zeta_m) other roots are not found.  Each r = w*q,
    q^n = c/w^n exactly, has r^n = w^n*q^n = c, so no root is re-checked;
    for w = u^j, c/w^n is c times the root u^(-j*n mod M), no inverse.
    """
    if field.kind == RATIONALS:
        return rational_nth_roots(Fraction(c), n)
    c = field.coerce(c)
    if not c or n == 1:
        return [c]
    units = roots_of_unity(field)
    M = len(units)
    found = set()
    for j, w in enumerate(units):
        ur = (c * units[-j * n % M]).as_rational()     # c/w^n
        if ur is not None:
            found.update(w * q for q in rational_nth_roots(ur, n))
    return sorted(found, key=scalar_sort_key, reverse=True)


def scalar_abs(v) -> Fraction:
    r = as_rational(v)
    if r is None:
        raise RittKitError("absolute value needs a rational scalar")
    return abs(r)
