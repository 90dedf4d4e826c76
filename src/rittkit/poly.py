"""Dense univariate polynomials over an exact field, plus linear maps.

Coefficients ascend by degree and the leading coefficient is nonzero;
the zero polynomial has an empty coefficient tuple.  The kernels under
compose and the top-coefficient solves take `_vector` pairs, integers
over one denominator over Q; `_root_candidate` is the one routine that
turns a root series of top coefficients into a candidate factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .errors import FieldMismatchError, ResourceCapError, RittKitError
from .field import (KRONECKER_MIN_LEN, QQ, CycElem, FieldDescriptor, _trim,
                    as_rational, dense_divmod, dense_mul, int_horner,
                    int_mul, int_pseudo_divmod, int_vector, int_vectors,
                    power, reduce_mod, scalar_str, signed_join,
                    splitting_primes, splitting_tables, vector_horner)
from .record import Record, slot_setters

DEGREE_CAP = 10_000

# Evaluation points the heuristic gcd over Q tries before it falls back to
# the remainder sequence (see poly_gcd).
HEU_GCD_TRIES = 6


class Poly(Record):
    __slots__ = ("field", "coeffs")
    field: FieldDescriptor
    coeffs: tuple

    def __init__(self, field: FieldDescriptor, coeffs: tuple):
        _set_field(self, field)
        _set_coeffs(self, coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.coeffs) == (other.field, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    @staticmethod
    def make(field: FieldDescriptor, coeffs) -> "Poly":
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def constant(field: FieldDescriptor, c) -> "Poly":
        return Poly.make(field, [c])

    @staticmethod
    def x(field: FieldDescriptor = QQ) -> "Poly":
        return Poly.make(field, [0, 1])

    @staticmethod
    def monomial(field: FieldDescriptor, degree: int, c=1) -> "Poly":
        return Poly.make(field, [0] * degree + [c])

    # -- basic structure -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise RittKitError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def constant_term(self):
        return self.coeff(0)

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            n = max(len(self.coeffs), len(other.coeffs))
            return Poly.make(self.field,
                             [self.coeff(i) + other.coeff(i) for i in range(n)])
        return self + Poly.constant(self.field, other)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        return Poly.make(self.field, dense_mul(self.coeffs, other.coeffs,
                                               self.field.zero()))

    __rmul__ = __mul__

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return Poly(self.field, ())
        return Poly(self.field, tuple(a * c for a in self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        return power(self, e, Poly.constant(self.field, 1), mul)

    def evaluate(self, v):
        """Horner evaluation at a scalar.

        At a rational v = p/q the steps run on the integer vectors A_i/den
        of the coefficients: acc = A_d, acc = acc*p + A_i*q^(d-i) ends at
        den*q^d*f(v), and the one scalar built then is f(v).  Any other
        point takes the field's own products.
        """
        r = as_rational(v)
        if r is None or not self.coeffs:
            acc = self.field.zero()
            for c in reversed(self.coeffs):
                acc = acc * v + c
            return acc
        A, den = int_vectors(self.coeffs)
        acc, qk = vector_horner(A, r.numerator, r.denominator)
        return self.field.from_ints(acc, den * qk)

    def derivative(self) -> "Poly":
        return Poly.make(self.field,
                         [i * c for i, c in enumerate(self.coeffs)][1:] or [0])

    def multiplicity_at_zero(self) -> int:
        if self.is_zero():
            raise RittKitError("zero polynomial")
        m = 0
        while not self.coeffs[m]:
            m += 1
        return m

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def __str__(self):
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = scalar_str(c)
            wrap = ("+" in cs[1:]) or ("-" in cs[1:]) or (" " in cs)
            if i == 0:
                term = f"({cs})" if wrap else cs
            else:
                xp = "x" if i == 1 else f"x^{i}"
                if cs == "1":
                    term = xp
                elif cs == "-1":
                    term = f"-{xp}"
                elif wrap:
                    term = f"({cs})*{xp}"
                else:
                    term = f"{cs}*{xp}"
            parts.append(term)
        return signed_join(parts)

    def __repr__(self):
        return f"Poly({self})"


_set_field, _set_coeffs = slot_setters(Poly)

def compose(f: Poly, g: Poly, degree_cap: int = DEGREE_CAP) -> Poly:
    """f(g(x)) by Horner in g, on the vectors of `_vector` (`_compose_vec`)."""
    if f.field != g.field:
        raise FieldMismatchError("compose over different fields")
    if not f:
        return f
    return _from_vector(f.field, *_compose_vec(_vector(f), _vector(g),
                                               degree_cap))


def _vector(p: Poly) -> tuple:
    """(v, den) with the coefficients of p equal to v[i]/den: integers
    over their least common denominator over Q, the field's own scalars
    over den = 1 over Q(zeta m)."""
    return int_vector(p.coeffs) if p.field == QQ else (list(p.coeffs), 1)


def _from_vector(field: FieldDescriptor, v: list, den) -> Poly:
    """The Poly with coefficients v[i]/den, trimmed; v is consumed."""
    if field == QQ:
        v = [Fraction(c, den) for c in v]
    return Poly(field, tuple(_trim(v)))


def _compose_vec(F: tuple, G: tuple, degree_cap: int = DEGREE_CAP) -> tuple:
    """(A, den) with A/den = f o g, for f = F[0]/F[1] nonzero and
    g = G[0]/G[1] given as `_vector` pairs.

    Horner in g with the denominator of g carried apart: with f of
    degree m, A_k = A_(k+1)*G + F_k*dg^(m-k) ends at A_0 =
    df*dg^m*f(g).  Over Q every step is an integer product (int_mul) and
    sum, so the pair is exact and no Fraction is built; over Q(zeta m)
    dg = 1 and the steps are the field's own products.
    """
    (F, df), (G, dg) = F, G
    m, n = len(F) - 1, len(G) - 1
    if m >= 1 and n >= 1 and m * n > degree_cap:
        raise ResourceCapError(
            f"compose degree {m * n} exceeds cap {degree_cap}")
    zero = F[-1] * 0
    if n == 1:                          # g linear: two products a term
        g0, g1 = G

        def mul(a, _):
            return ([a[0] * g0] + [x * g0 + y * g1 for x, y in zip(a[1:], a)]
                    + [a[-1] * g1])
    else:
        mul = int_mul if type(zero) is int else (
            lambda a, b: dense_mul(a, b, zero))
    acc, power = [F[-1]], 1
    for c in reversed(F[:-1]):
        power *= dg
        acc = mul(acc, G) or [zero]
        acc[0] += c if dg == 1 else c * power
    return acc, df * power


def _same(U: tuple, V: tuple) -> bool:
    """Whether two `_vector` pairs of one length are equal, by
    cross-multiplication of the denominators."""
    (u, du), (v, dv) = U, V
    if du == dv:
        return u == v
    return len(u) == len(v) and all(x * dv == y * du for x, y in zip(u, v))


def iterate(f: Poly, m: int, degree_cap: int = DEGREE_CAP) -> Poly:
    if m < 0:
        raise ValueError("iterate count must be nonnegative")
    if f.degree < 1:
        raise RittKitError("iterate needs a nonconstant polynomial")
    if m >= 1 and f.degree >= 2 and f.degree ** m > degree_cap:
        raise ResourceCapError(
            f"iterate degree {f.degree}^{m} exceeds cap {degree_cap}")
    out = Poly.x(f.field)
    for _ in range(m):
        out = compose(f, out, degree_cap)
    return out


def chebyshev(delta: int, field: FieldDescriptor = QQ) -> Poly:
    """T_delta with T_delta(x + 1/x) = x^delta + x^(-delta)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    # c_k = [x^(delta-2k)] = (-1)^k delta/(delta-k) C(delta-k, k), and
    # c_(k+1)/c_k = -(delta-2k)(delta-2k-1)/((k+1)(delta-k-1)), exactly
    coeffs = [0] * (delta + 1)
    c = coeffs[delta] = 1
    for k in range(delta // 2):
        c = -c * (delta - 2 * k) * (delta - 2 * k - 1) // (
            (k + 1) * (delta - k - 1))
        coeffs[delta - 2 * k - 2] = c
    return Poly.make(field, coeffs)


class LinearPoly(Record):
    """Invertible ax + b."""
    __slots__ = ("field", "a", "b")
    field: FieldDescriptor
    a: object
    b: object

    def __init__(self, field: FieldDescriptor, a, b):
        _set_linear_field(self, field)
        _set_a(self, a)
        _set_b(self, b)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.field, self.a, self.b)
                    == (other.field, other.a, other.b))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    @staticmethod
    def make(field: FieldDescriptor, a, b) -> "LinearPoly":
        a = field.coerce(a)
        b = field.coerce(b)
        if not a:
            raise ValueError("linear map needs a != 0")
        return LinearPoly(field, a, b)

    @staticmethod
    def identity(field: FieldDescriptor = QQ) -> "LinearPoly":
        return LinearPoly.make(field, 1, 0)

    @staticmethod
    def from_poly(p: Poly) -> "LinearPoly":
        if p.degree != 1:
            raise ValueError("not a linear polynomial")
        return LinearPoly.make(p.field, p.coeff(1), p.coeff(0))

    def to_poly(self) -> Poly:
        return Poly.make(self.field, [self.b, self.a])

    def inverse(self) -> "LinearPoly":
        inv_a = self.field.one() / self.a
        return LinearPoly.make(self.field, inv_a, -self.b * inv_a)

    def after(self, other: "LinearPoly") -> "LinearPoly":
        """self(other(x))."""
        return LinearPoly.make(self.field, self.a * other.a,
                               self.a * other.b + self.b)

    def is_identity(self) -> bool:
        return self.a == self.field.one() and not self.b

    def __str__(self):
        return str(self.to_poly())


_set_linear_field, _set_a, _set_b = slot_setters(LinearPoly)

def conjugate(ell: LinearPoly, f: Poly) -> Poly:
    """ell o f o ell^{-1}: one composition f o ell^{-1} on the vectors of
    `_vector` (`_compose_vec`), then a*(...) + b on its numerators.

    Over Q, with f o ell^{-1} = A/den and ell = (an*x + bn)/d on
    integers, the conjugate is (an*A + bn*den)/(d*den): integer products
    and sums only, so it is exact, and it builds one Fraction per
    coefficient at the end.  Over Q(zeta m) the same two steps run on
    the field's scalars with every denominator 1.
    """
    if ell.field != f.field:
        raise FieldMismatchError("conjugate over different fields")
    if not f:
        return Poly.constant(f.field, ell.b)
    A, den = _compose_vec(_vector(f), _vector(ell.inverse().to_poly()))
    (bn, an), d = _vector(ell.to_poly())
    A = [an * c for c in A]
    A[0] += bn * den
    return _from_vector(f.field, A, d * den)


def poly_divmod(a: Poly, b: Poly) -> tuple:
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    q, r = dense_divmod(a.coeffs, b.coeffs)
    return Poly.make(a.field, q), Poly.make(a.field, r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd (zero for two zeros).

    Over Q it works on the primitive integer lists of a and b, nonzero
    ones with their powers x^k and x^j divided out, A and B, and returns
    x^min(k, j)*gcd(A, B): x is prime in Z[x] and divides neither A nor
    B.  When both have at least KRONECKER_MIN_LEN terms it first tries the
    heuristic gcd (GCDHEU; Char, Geddes and Gonnet 1989): h =
    gcd(A(xi), B(xi)) for one integer xi >= 2*min(|A|, |B|) + 2, |.| the
    largest coefficient in absolute value; G the polynomial of the
    balanced base-xi digits of h (each |G_i| <= xi/2, so G(xi) = h); and
    P = pp(G), whose leading coefficient is positive because h is.  P is
    accepted only when it divides both A and B (int_pseudo_divmod leaves
    remainder zero), and then P = gcd(A, B), the theorem of Char, Geddes
    and Gonnet with its bound on xi:

    Let g = gcd(A, B), primitive.  P is a primitive common divisor, so
    g = P*c with c in Z[x] (Gauss).  Say |A| <= |B|.  Every complex root
    r of A has |r| < 1 + |A| <= xi/2 (Cauchy), so A(xi) != 0, and h and
    P(xi), which divide it, are not 0.  g(xi) divides A(xi) and B(xi), so
    g(xi) = P(xi)*c(xi) divides h = G(xi) = cont(G)*P(xi); so c(xi)
    divides cont(G), and 0 < |cont(G)| <= |lc(G)| <= xi/2.  If
    deg c >= 1, then c divides A, c = lc(c)*prod(x - r_j) over roots of
    A, and |c(xi)| >= prod |xi - r_j| > (xi/2)^(deg c) >= xi/2: a
    contradiction.  So c is a constant, and 1 as g and P are primitive
    with positive leading coefficients.

    A failed candidate moves xi on by the factor 73794/27011 (Liao and
    Fateman 1995); after HEU_GCD_TRIES points, and for shorter inputs
    from the start, the gcd is a primitive integer remainder sequence,
    which keeps the coefficients at the size of the gcd's cofactors
    instead of letting Euclid's Fractions swell (Collins 1971; Brown
    1971).

    Over K = Q(zeta m) the gcd of a zero and b is b made monic.  For
    nonzero a and b it is modular (Langemyr and McCallum 1989;
    Encarnacion 1995): at each prime p = 1 (mod m) of splitting_primes,
    Z[zeta] has phi(m) residue maps onto F_p, zeta -> w_i with w_i the
    roots of Phi_m mod p, the ideals P_i = (p, zeta - w_i).  A map is
    good when p divides no denominator of a coefficient and neither
    leading coefficient maps to 0; there Euclid mod p gives the monic
    gcd of the images.  Let G = gcd(a, b), monic.

    Degree bound: at a good map, deg gcd_P >= deg G.  Scale a by an
    integer prime to p into A in Z[zeta][x], with leading coefficient c
    a unit at P.  Each root alpha of A has c*alpha integral, since
    c^(n-1)*A(x/c) is monic in Z[zeta][x] (n = deg A).  G divides A and
    is monic, so its coefficients are symmetric functions of deg G of
    those roots, and c^(deg G)*G is in Z[zeta][x] (Z[zeta] is the ring
    of integers of K).  As c is a unit at P, G reduces at P, to a monic
    polynomial of the same degree; a/G and b/G, quotients by a monic
    divisor, reduce too, so it divides both images and so their gcd.

    Hence one good map with a gcd of degree 0 proves G = 1, the common
    case, and the search ends there.  Otherwise only the primes at which
    all phi(m) maps are good and give the least degree seen so far are
    kept.  When that degree is deg G, G reduces at every P_i to the gcd
    of the images, so its power-basis coordinates are integral at p and
    are read off the images by the inverse Vandermonde matrix of the
    w_i.  The kept primes
    are combined by the Chinese remainder theorem and each coordinate
    recovered by rational reconstruction (Wang 1981; Monagan 2004).  A
    candidate C is accepted only when it divides a and b exactly, which
    takes no inverse as C is monic.  Then C divides G with deg C >= deg G, so
    C = G.  The search has no cap on the number of primes: only finitely
    many are bad or give too high a degree (those dividing a
    denominator, a leading coefficient's norm, or the norm of a
    resultant of the cofactors), and once the kept primes' product
    passes twice the square of G's largest coordinate numerator and
    denominator, the reconstruction is G.
    """
    if a.field == QQ and b.field == QQ:
        g = _int_gcd(primitive(int_vector(a.coeffs)[0]),
                    primitive(int_vector(b.coeffs)[0]))
        return Poly(QQ, tuple(Fraction(c, g[-1]) for c in g)) if g else a
    if not b:
        return a.monic()
    a._check(b)
    if not a:
        return b.monic()
    return _cyclotomic_gcd(a, b)


def _cyclotomic_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of nonzero a and b over Q(zeta m) at splitting primes
    (proofs in poly_gcd)."""
    field = a.field
    m, d = field.order, field.degree
    one = (field.one(),)
    if a.degree == 0 or b.degree == 0:
        return Poly(field, one)
    best = None
    for p in splitting_primes(m):
        powers, inverse = splitting_tables(m, p)
        images = []                     # the monic gcd at each good map
        for row in powers:
            ia = reduce_mod(a.coeffs, p, row)
            ib = None if ia is None else reduce_mod(b.coeffs, p, row)
            if ib is None:              # p divides a denominator
                break
            if ia[-1] and ib[-1]:
                g = _gcd_mod(ia, ib, p)
                if len(g) == 1:
                    return Poly(field, one)
                inv = pow(g[-1], -1, p)
                images.append([c * inv % p for c in g])
        if not images:
            continue
        degrees = [len(g) - 1 for g in images]
        if best is None or min(degrees) < best:
            best, failed = min(degrees), None
            residues, modulus = [0] * (best * d), 1
        if len(images) < d or max(degrees) > best:
            continue
        # coordinate j of coefficient k < best of the gcd, mod p, at k*d + j
        r = [sum(map(mul, row, ys)) % p
             for ys in zip(*(g[:best] for g in images)) for row in inverse]
        step = pow(modulus, -1, p)
        residues = [u + modulus * ((v - u) * step % p)
                    for u, v in zip(residues, r)]
        modulus *= p
        fracs = [_rational_reconstruction(u, modulus) for u in residues]
        if any(f is None for f in fracs):
            continue
        cand = Poly(field, tuple(CycElem.from_vector(field, fracs[k:k + d])
                                 for k in range(0, best * d, d)) + one)
        if cand != failed and not any(
                dense_divmod(a.coeffs, cand.coeffs)[1]
                + dense_divmod(b.coeffs, cand.coeffs)[1]):
            return cand
        failed = cand
    raise RuntimeError("internal: the splitting primes ran out")


def _gcd_mod(a: list, b: list, p: int) -> list:
    """A gcd mod p, not made monic, of two integer lists with nonzero
    leading terms mod p, by Euclid."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        a = list(a)
        for k in range(len(a) - 1 - db, -1, -1):
            c = a[k + db] * inv % p
            if c:
                for j in range(db):
                    a[k + j] = (a[k + j] - c * b[j]) % p
        del a[db:]
        a, b = b, _trim(a)
    return a


def _rational_reconstruction(u: int, modulus: int) -> Fraction | None:
    """The n/d == u (mod modulus) with |n|, d <= sqrt(modulus/2) and
    gcd(n, d) = 1, unique if it exists, or None (Wang 1981)."""
    bound = isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not 0 < abs(s1) <= bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def primitive(ints: list) -> list:
    """An integer coefficient list divided by the gcd of its entries."""
    c = gcd(*ints)
    return [x // c for x in ints] if c > 1 else list(ints)


def _int_gcd(a: list, b: list) -> list:
    """A gcd in Z[x] of two primitive integer lists (trimmed, ascending):
    the shared power of x, then GCDHEU or remainders (see poly_gcd)."""
    if not (a and b):
        return a or b
    k, j = (next(i for i, c in enumerate(v) if c) for v in (a, b))
    a, b = a[k:], b[j:]
    g = (_heuristic_gcd(a, b) if min(len(a), len(b)) >= KRONECKER_MIN_LEN
         else None)
    return [0] * min(k, j) + (_remainder_gcd(a, b) if g is None else g)


def _heuristic_gcd(a: list, b: list) -> list | None:
    """gcd(a, b) of nonzero primitive integer lists by GCDHEU (proof in
    poly_gcd), or None when HEU_GCD_TRIES evaluation points fail."""
    shortest = min(len(a), len(b))
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(HEU_GCD_TRIES):
        h = gcd(int_horner(a, xi), int_horner(b, xi))
        digits = []
        while h:
            d = h % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        if len(digits) <= shortest:
            cand = primitive(digits)
            if not (int_pseudo_divmod(a, cand)[2]
                    or int_pseudo_divmod(b, cand)[2]):
                return cand
        xi = xi * 73794 // 27011
    return None


def _remainder_gcd(a: list, b: list) -> list:
    """A gcd in Z[x] of two primitive integer lists by a primitive
    remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, primitive(int_pseudo_divmod(a, b)[2])
    return a


def deflate(F: Poly, r) -> Poly:
    """F with the factor x - r divided out as often as it divides."""
    lin = Poly.make(F.field, [-r, 1])
    while F.degree >= 1:
        q, rem = poly_divmod(F, lin)
        if rem:
            break
        F = q
    return F


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = poly_divmod(a, b)
    if not r.is_zero():
        raise RittKitError("inexact polynomial division")
    return q


def centred(f: Poly) -> tuple:
    """(s, F), F = f(x - s) + s with f(x - s) free of x^(deg f - 1), and so
    F too when deg f >= 2, as are F^(o k) = (x + s) o f^(o k) o (x - s)."""
    s = f.coeff(f.degree - 1) / (f.degree * f.leading())
    return s, conjugate(LinearPoly.make(f.field, 1, s), f) if s else f


def power_shape(f: Poly) -> tuple | None:
    """(t, e) with f = lc(f)*(x + t)^deg f + e, or None (deg f >= 1):
    the centred form of f is lc(f)*x^d + F_0, with t = s and e = F_0 - s."""
    t, F = centred(f)
    return None if any(F.coeffs[1:-1]) else (t, F.constant_term() - t)


# -- truncated reversed series: the top coefficients of powers and compositions

def _rev_compose_trunc(A, B, m: int) -> tuple:
    """(top, den), top[i]/den the x^(deg A*deg B - i) coefficient of A o B
    for i = 0..m; A and B are `_vector` pairs, and den = 1 over Q(zeta m).

    rev(A o B) = sum_k A_k rev(B)^k x^((deg A - k) deg B), and only the
    k >= kmin = deg A - m // deg B enter the window.  Over Q the sum runs
    on integers: with A = a/da and rev(B) = R/db, each term is
    a_k*db^(deg A - k)*R^k over da*db^(deg A), and each R^k one integer
    schoolbook product truncated to m + 1 terms, which beats int_mul's
    Kronecker product at these lengths.
    """
    (a, da), (b, db) = A, B
    dA, dB = len(a) - 1, len(b) - 1
    kmin = max(0, dA - m // dB)
    zero = a[-1] * 0
    rev = b[::-1][:m + 1] + [zero] * (m - dB)
    if db != 1:
        a = {k: a[k] * db ** (dA - k) for k in range(kmin, dA + 1)}
    cur = power(rev, kmin, [zero + 1] + [zero] * m,
                lambda u, v: dense_mul(u, v, zero, m))
    out = [zero] * (m + 1)
    for k in range(kmin, dA + 1):
        shift = (dA - k) * dB
        if a[k]:
            for i in range(m + 1 - shift):
                if cur[i]:
                    out[shift + i] += a[k] * cur[i]
        if k < dA:
            cur = dense_mul(cur, rev, zero, m)
    return out, da * db ** dA


def series_root(top: list, n: int, terms: int) -> list:
    """The first `terms` coefficients of (Q/Q_0)^(1/n),
    Q = top[0] + top[1]*x + ..., Q_0 != 0.

    With Q_0 = 1, P_0 = 1 picks the root.  J. C. P. Miller's recurrence
    n*k*P_k = sum_{i=1..k} ((n + 1)*i - n*k)*Q_i*P_(k-i) costs
    O(terms^2) field operations (Knuth, TAOCP vol. 2, 4.7).  The weights
    are integers over n*k, so the one division per term is a product by a
    Fraction, never a field inverse; over Q(zeta m) one inverse scales Q
    by 1/Q_0 first.

    Over Q, top holds Fractions or integers, and the recurrence runs on
    integers with one Fraction per output term (_int_series_root):
    Q/Q_0 = T/T_0 for T the integer vector of top, whose common
    denominator cancels.
    """
    top = top[:terms]
    if type(top[0]) is Fraction:
        top = int_vector(top)[0]
    if type(top[0]) is int:
        p, step = _int_series_root(top, n, terms)
        return [Fraction(pk, step ** k) for k, pk in enumerate(p)]
    inv = 1 / top[0]
    top = [q * inv for q in top]
    nonzero = [(i, q) for i, q in enumerate(top[1:], 1) if q]
    out = [top[0]]
    zero = top[0] * 0
    for k in range(1, terms):
        acc = zero
        for i, q in nonzero:
            if i > k:
                break
            w = (n + 1) * i - n * k
            if w:
                acc = acc + q * out[k - i] * w
        out.append(acc * Fraction(1, n * k))
    return out


def _int_series_root(T: list, n: int, terms: int) -> tuple:
    """(p, step) with P_k = p[k]/step^k the first `terms` coefficients of
    Q^(1/n) with P_0 = 1, for Q = T/D, T integers and D = T_0 != 0, which
    may be negative; step = n^2*D.

    p_k = (n^2*D)^k*P_k is an integer, and multiplying Miller's
    recurrence by (n^2*D)^k/n gives

        k*p_k = sum_{i=1..k} ((n + 1)*i - n*k)*T_i*n^(2i-1)*D^(i-1)*p_(k-i),

    so the division by k is exact.  Proof that p_k is an integer: with
    u = Q - 1 = (T - D)/D, P = sum_j binom(1/n, j)*u^j; D^j times the
    x^k term of u^j is an integer, zero for j > k, whatever the sign of
    D.  So p_k is a sum of integers times b_j = binom(1/n, j)*n^(2j) =
    n^j*prod_{i<j}(1 - n*i)/j!, and b_j is an integer.  At a prime p not
    dividing n, binom(1/n, j) is a p-adic integer: 1/n is one, and
    binom(., j) maps Z into Z and so, by continuity, Z_p into Z_p.  At
    p | n, prod(1 - n*i) is a unit at p and v_p(j!) < j <= j*v_p(n), so
    v_p(b_j) > 0.
    """
    D, nonzero, c = T[0], [], n
    for i, t in enumerate(T[1:], 1):     # c = n^(2i-1)*D^(i-1)
        if t:
            nonzero.append((i, t * c))
        c *= n * n * D
    p = [1]
    for k in range(1, terms):
        acc = 0
        for i, t in nonzero:
            if i > k:
                break
            w = (n + 1) * i - n * k
            if w:
                acc += w * t * p[k - i]
        pk, rem = divmod(acc, k)
        if rem:
            raise RuntimeError(f"internal: series_root term {k} is not "
                               "an integer")
        p.append(pk)
    return p, n * n * D


def _root_candidate(top: list, n: int, a, c) -> tuple:
    """The `_vector` pair of a*rev(P) - c, P the first len(top) terms of
    the n-th root series of top/top[0]: right factors, n-th roots and
    intertwiner Newton steps all read their candidates off it.

    Over Q, top is an integer vector and P_k = p_k/step^k
    (`_int_series_root`); with a = an/d and c = cn/d, the x^j coefficient
    of a*rev(P) is an*p_(b-j)*step^j/(d*step^b), b = len(top) - 1, so the
    pair needs no Fraction; it is divided by its content.  Over
    Q(zeta m), top holds the field's scalars and the denominator is 1.
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


def poly_nth_root(F: Poly, n: int, lead_root) -> Poly | None:
    """The h with h^n = F and leading coefficient lead_root, if it exists."""
    if F.is_zero() or F.degree % n:
        return None
    top = _vector(F)[0][::-1][:F.degree // n + 1]
    cand = _from_vector(F.field, *_root_candidate(top, n, lead_root, 0))
    return cand if cand ** n == F else None


def power_form(F: Poly, n: int) -> tuple | None:
    """(s, R) with F = lc(F)*x^s*R(x)^n, R monic and R(0) != 0, or None.

    The n-th roots of F/x^s over the closure are a*R with a^n = lc(F), so
    its in-field roots are R.scale(a) for a in nth_roots(lc(F), n).
    """
    if F.is_zero():
        return None
    s = F.multiplicity_at_zero()
    R = poly_nth_root(Poly(F.field, F.coeffs[s:]).monic(), n, 1)
    return None if R is None else (s, R)


def squarefree_part(F: Poly) -> Poly:
    if F.degree <= 0:
        return F
    g = poly_gcd(F, F.derivative())
    return exact_div(F, g) if g.degree >= 1 else F
