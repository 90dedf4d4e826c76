"""Bivariate polynomials, resultant elimination, and plane-curve values.

A BivarPoly stores rows indexed by the power of y, each row a Poly in x.
Resultants and gcds are computed by evaluation and Lagrange interpolation,
skipping sample points where a leading coefficient vanishes; a resultant
is exact by its degree bound, a gcd by exact division of both inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .errors import FieldMismatchError, RittKitError
from .field import (QQ, FieldDescriptor, as_rational, dense_mul,
                    int_pseudo_divmod, int_vector, int_vectors, signed_join)
from .poly import Poly, exact_div, poly_divmod, poly_gcd, squarefree_part
from .record import Record, slot_setters


def lagrange_interpolate(field: FieldDescriptor, points) -> Poly:
    """Unique polynomial through (t, value) pairs with distinct t."""
    pts = list(points)
    return interpolate_columns(field, [t for t, _ in pts],
                               [[v for _, v in pts]])[0]


def interpolate_columns(field: FieldDescriptor, ts, columns) -> list:
    """The Poly through (ts[i], column[i]) for each column, distinct
    rational ts = T/Q: P(x) = P~(Q*x), P~ through the integer nodes T.

    Newton's divided differences on integer vectors: level k sits over
    the product of the lcms l_j of the gaps T[i+j] - T[i], j <= k, and
    the basis products prod_{i<k} (x - T_i) are integer lists, both built
    once for the point set; a column builds one scalar per coefficient.
    """
    T, Q = int_vector([as_rational(t) for t in ts])
    n = len(T)
    gaps = [[T[i + k] - T[i] for i in range(n - k)] for k in range(1, n)]
    dens = list(accumulate((lcm(*g) for g in gaps), mul, initial=1))
    basis = [[1]] if n else []
    for t in T[:-1]:
        basis.append(dense_mul(basis[-1], [-t, 1], 0))
    out = []
    for col in columns:
        diffs, den = int_vectors([field.coerce(v) for v in col])
        coeffs = [[0] * field.degree for _ in range(n)]
        for k, b in enumerate(basis):
            top = dens[-1] // dens[k]
            for i, c in enumerate(b):
                coeffs[i] = [u + x * c * top for u, x in zip(coeffs[i],
                                                              diffs[0])]
            if k < n - 1:
                lk = dens[k + 1] // dens[k]
                diffs = [[(y - x) * (lk // g) for x, y in zip(u, v)]
                         for u, v, g in zip(diffs, diffs[1:], gaps[k])]
        out.append(Poly.make(field, [
            field.from_ints([x * Q ** i for x in c], den * dens[-1])
            for i, c in enumerate(coeffs)]))
    return out


def resultant_univar(A: Poly, B: Poly):
    """Resultant of two univariate polynomials over their field.

    Over Q, Res(a/da, b/db) = Res(a, b)/(da^deg b * db^deg a) for integer
    vectors a and b, whose resultant comes from the subresultant sequence.
    """
    field = A.field
    if A.is_zero() or B.is_zero():
        return field.zero()
    if field == QQ and A.degree > 0 and B.degree > 0:
        (a, da), (b, db) = int_vector(A.coeffs), int_vector(B.coeffs)
        return Fraction(_int_resultant(a, b), da ** B.degree * db ** A.degree)
    sign = 1
    acc = field.one()
    while B.degree > 0:
        _, R = poly_divmod(A, B)
        if R.is_zero():
            return field.zero()
        if (A.degree * B.degree) % 2:
            sign = -sign
        acc = acc * B.leading() ** (A.degree - R.degree)
        A, B = B, R
    acc = acc * B.coeffs[0] ** A.degree
    return acc if sign == 1 else -acc


def _int_resultant(a: list, b: list) -> int:
    """Res(a, b) of integer lists of degree >= 1, by the subresultant
    remainder sequence (Collins 1967; Cohen, GTM 138, Alg. 3.3.7).

    Each pseudo-remainder is divided by g*h^delta, a factor it is known
    to have, so the entries stay at the size of minors of the Sylvester
    matrix instead of growing as a Fraction Euclid's do.
    """
    ca, cb = gcd(*a), gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a, b = [x // ca for x in a], [x // cb for x in b]
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
        f, _, r = int_pseudo_divmod(a, b)
        if not r:
            return 0
        # lc(b)^(delta+1)*a == q*b + prem, and f divides lc(b)^(delta+1)
        scale, div = b[-1] ** (delta + 1) // f, g * h ** delta
        a, b = b, [x * scale // div for x in r]
        g = a[-1]
        h = g ** delta * h // h ** delta            # h^(1-delta)*g^delta
    return s * t * (b[0] ** (len(a) - 1) // h ** (len(a) - 2))


class BivarPoly(Record):
    __slots__ = ("field", "rows")
    field: FieldDescriptor
    rows: tuple  # rows[j] is the Poly-in-x coefficient of y^j

    def __init__(self, field: FieldDescriptor, rows: tuple):
        _set_field(self, field)
        _set_rows(self, rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.rows) == (other.field, other.rows)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rows))

    @staticmethod
    def make(field: FieldDescriptor, rows) -> "BivarPoly":
        rs = []
        for r in rows:
            if isinstance(r, Poly):
                if r.field != field:
                    raise FieldMismatchError("row field mismatch")
                rs.append(r)
            else:
                rs.append(Poly.make(field, r))
        while rs and rs[-1].is_zero():
            rs.pop()
        return BivarPoly(field, tuple(rs))

    @staticmethod
    def from_univar(p: Poly, var: str) -> "BivarPoly":
        if var == "x":
            return BivarPoly.make(p.field, [p])
        return BivarPoly.make(p.field, [Poly.constant(p.field, c)
                                        for c in p.coeffs])

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def deg_y(self) -> int:
        return len(self.rows) - 1

    @property
    def deg_x(self) -> int:
        return max((r.degree for r in self.rows), default=-1)

    def coeff(self, i: int, j: int):
        """Coefficient of x^i y^j."""
        if 0 <= j < len(self.rows):
            return self.rows[j].coeff(i)
        return self.field.zero()

    def row(self, j: int) -> Poly:
        if 0 <= j < len(self.rows):
            return self.rows[j]
        return Poly(self.field, ())

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        n = max(len(self.rows), len(other.rows))
        return BivarPoly.make(self.field,
                              [self.row(j) + other.row(j) for j in range(n)])

    def __neg__(self) -> "BivarPoly":
        return BivarPoly(self.field, tuple(-r for r in self.rows))

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly.make(self.field, dense_mul(self.rows, other.rows,
                                                    Poly(self.field, ())))

    def scale(self, c) -> "BivarPoly":
        return BivarPoly.make(self.field, [r.scale(c) for r in self.rows])

    def eval_x(self, x0) -> Poly:
        """Specialize x, leaving a Poly in y."""
        return Poly.make(self.field, [r.evaluate(x0) for r in self.rows])

    def eval_xy(self, x0, y0):
        return self.eval_x(x0).evaluate(y0)

    def transpose(self) -> "BivarPoly":
        """The rows by the power of x, read off the rows' coefficient
        tuples, each trimmed, with one shared zero for the gaps."""
        rows, zero = [r.coeffs for r in self.rows], self.field.zero()
        out = []
        for i in range(max(map(len, rows), default=0)):
            col = [r[i] if i < len(r) else zero for r in rows]
            while col and not col[-1]:
                col.pop()
            out.append(Poly(self.field, tuple(col)))
        return BivarPoly(self.field, tuple(out))

    def derivative_y(self) -> "BivarPoly":
        return BivarPoly.make(self.field,
                              [r.scale(j) for j, r in enumerate(self.rows)][1:]
                              or [Poly(self.field, ())])

    def content_y(self) -> Poly:
        """gcd over K[x] of the y-coefficient rows (monic)."""
        return _row_gcd(self.field, self.rows)

    def __str__(self):
        parts = []
        for j in range(len(self.rows) - 1, -1, -1):
            r = self.rows[j]
            if r.is_zero():
                continue
            rs = str(r)
            wrap = (" " in rs) or rs.startswith("-")
            if j == 0:
                parts.append(f"({rs})" if " " in rs else rs)
            else:
                yp = "y" if j == 1 else f"y^{j}"
                if rs == "1":
                    parts.append(yp)
                elif rs == "-1":
                    parts.append(f"-{yp}")
                else:
                    parts.append(f"({rs})*{yp}" if wrap else f"{rs}*{yp}")
        return signed_join(parts)


_set_field, _set_rows = slot_setters(BivarPoly)


def _sample_points(field, needed, bad_test):
    """The first `needed` integer sample values passing bad_test, lazily."""
    found, t = 0, 0
    while found < needed:
        v = field.coerce(t)
        if not bad_test(v):
            found += 1
            yield v
        t += 1
        if t > 20 * needed + 50:
            raise RittKitError("could not find enough good sample points")


def resultant_y(G: BivarPoly, H: BivarPoly) -> Poly:
    """Resultant eliminating y, as a Poly in x."""
    if G.is_zero() or H.is_zero():
        return Poly(G.field, ())
    dg, dh = G.deg_y, H.deg_y
    if dg == 0 and dh == 0:
        raise RittKitError("both inputs constant in the eliminated variable")
    if dg == 0:
        return G.rows[0] ** dh
    if dh == 0:
        return H.rows[0] ** dg
    field = G.field
    bound = G.deg_x * dh + H.deg_x * dg
    lc_g, lc_h = G.rows[dg], H.rows[dh]

    def bad(v):
        return (not lc_g.evaluate(v)) or (not lc_h.evaluate(v))

    pts = list(_sample_points(field, bound + 1, bad))
    vals = [(t, resultant_univar(G.eval_x(t), H.eval_x(t))) for t in pts]
    return lagrange_interpolate(field, vals)


# -- gcd and squarefree structure in the y direction ------------------------

def _primitive_y(G: BivarPoly) -> tuple:
    """(content in x, primitive part): splits off vertical-line factors."""
    c = G.content_y()
    if c.degree < 1:
        return c, G
    prim = BivarPoly.make(G.field, [exact_div(r, c) if not r.is_zero()
                                    else r for r in G.rows])
    return c, prim


def _row_gcd(field, rows) -> Poly:
    """Monic gcd of Polys in x (zero when all are): the nonzero rows from
    the lowest degree up, stopping at degree 0, made monic only above it."""
    rows = sorted((r for r in rows if r), key=lambda r: r.degree)
    g = rows[0] if rows else Poly(field, ())
    for r in rows[1:]:
        if g.degree == 0:
            break
        g = poly_gcd(g, r)
    return Poly(field, (field.one(),)) if g.degree == 0 else g.monic()


def bivar_gcd(G: BivarPoly, H: BivarPoly) -> BivarPoly:
    """gcd in K[x][y], normalized to monic content and leading coefficient 1.

    Brown's dense interpolation (Brown 1971).  At each integer x0 where
    both leading rows survive, the monic gcd of G(x0, y) and H(x0, y) has
    y-degree at least that of the gcd, with equality at all but finitely
    many x0.  Scaled by gamma(x0), gamma the gcd of the leading rows, the
    samples of least degree are the values of gamma/lc(P) * P, P the
    primitive gcd, whose x-degree is at most deg gamma + min(deg_x).  Row
    by row interpolation gives a candidate; its primitive part is the
    gcd once it divides both inputs, because a common divisor of at least
    the gcd's y-degree is the gcd.  A sample of degree 0 ends the search.
    """
    if G.is_zero():
        return H
    if H.is_zero():
        return G
    prim, cont = _gcd_cofactor(G, H)[0], _row_gcd(G.field, G.rows + H.rows)
    return BivarPoly.make(G.field, [r * cont for r in prim.rows])


def _gcd_cofactor(G: BivarPoly, H: BivarPoly) -> tuple:
    """(P, G/P), P the primitive gcd of nonzero G and H, leading coeff 1.

    The cofactor is the quotient that proved the candidate, so a caller
    that needs it divides nothing again; bivar_gcd adds the content.
    """
    field = G.field
    lc_g, lc_h = G.rows[-1], H.rows[-1]
    prim, cof = BivarPoly.make(field, [Poly.constant(field, 1)]), G
    gamma, vals = None, []

    def bad(v):
        return (not lc_g.evaluate(v)) or (not lc_h.evaluate(v))

    # the unlucky samples are roots in x of the cofactors' resultant, and
    # at most deg_x G + deg_x H + 1 samples are interpolated
    limit = G.deg_x * H.deg_y + H.deg_x * G.deg_y + G.deg_x + H.deg_x + 1
    for x0 in _sample_points(field, limit, bad):
        g = poly_gcd(G.eval_x(x0), H.eval_x(x0))
        if g.degree == 0:
            break
        if gamma is None:
            gamma = poly_gcd(lc_g, lc_h)
            points = gamma.degree + min(G.deg_x, H.deg_x) + 1
        if not vals or g.degree < vals[0][1].degree:
            vals = []
        elif g.degree > vals[0][1].degree or len(vals) == points:
            continue
        vals.append((x0, g.scale(gamma.evaluate(x0))))
        n = len(vals)
        if n == points or (n >= 2 and not n & (n - 1)):
            cand = BivarPoly.make(field, interpolate_columns(
                field, [t for t, _ in vals],
                [[v.coeff(k) for _, v in vals] for k in range(g.degree + 1)]))
            if gamma.degree > 0:
                cand = _primitive_y(cand)[1]
            try:
                quo = bivar_exact_div_y(G, cand)
                bivar_exact_div_y(H, cand)
            except RittKitError:
                continue
            prim, cof = cand, quo
            break
    else:
        raise RittKitError("no bivariate gcd candidate passed its division")
    lead = prim.rows[-1].leading()
    if lead == 1:
        return prim, cof
    return prim.scale(field.one() / lead), cof.scale(lead)


def bivar_exact_div_y(A: BivarPoly, B: BivarPoly) -> BivarPoly:
    """Exact division in K(x)[y]; raises if not exact."""
    field = A.field
    rem = list(A.rows)
    db = B.deg_y
    if db < 0:
        raise ZeroDivisionError
    out = [None] * (len(rem) - db)
    lb = B.rows[db]
    for k in range(len(out) - 1, -1, -1):
        q = exact_div(rem[k + db], lb)
        out[k] = q
        for j in range(db + 1):
            rem[k + j] = rem[k + j] - q * B.rows[j]
    if any(not r.is_zero() for r in rem[:db]):
        raise RittKitError("inexact bivariate division")
    return BivarPoly.make(field, out)


def bivar_squarefree(G: BivarPoly) -> BivarPoly:
    """Squarefree part.

    The x-only and y-only contents (vertical and horizontal lines) are
    split off and made squarefree as univariate polynomials, so bivar_gcd
    only sees a part with no line factor: a pushed line can carry a
    multiplicity as high as the map's degree.  Constant contents are 1,
    and the lines are multiplied back only when one of them is not.
    """
    if G.is_zero():
        return G
    cx, G = _primitive_y(G)
    cy, Gt = _primitive_y(G.transpose())
    prim = Gt.transpose()
    if prim.deg_y >= 1:
        prim = _gcd_cofactor(prim, prim.derivative_y())[1]
    if cx.degree < 1 and cy.degree < 1:
        return prim
    lines = (BivarPoly.from_univar(squarefree_part(cx), "x")
             * BivarPoly.from_univar(squarefree_part(cy), "y"))
    return lines * prim


class BivarCurve(Record):
    """Plane curve G(x,y) = 0, with G scaled to a canonical representative."""
    field: FieldDescriptor
    poly: BivarPoly

    @staticmethod
    def make(poly: BivarPoly) -> "BivarCurve":
        """The curve of poly scaled so that its first nonzero coefficient,
        by the power of y and then of x, is 1; poly itself if it is."""
        if poly.is_zero():
            raise ValueError("curve needs a nonzero defining polynomial")
        lead = next(c for r in poly.rows for c in r.coeffs if c)
        if lead == 1:
            return BivarCurve(poly.field, poly)
        return BivarCurve(poly.field, poly.scale(poly.field.one() / lead))

    @property
    def deg_x(self) -> int:
        return self.poly.deg_x

    @property
    def deg_y(self) -> int:
        return self.poly.deg_y

    def contains(self, x0, y0) -> bool:
        return not self.poly.eval_xy(x0, y0)

    def x_constant(self) -> bool:
        """True when the curve is a union of vertical lines."""
        return self.poly.deg_y == 0

    def y_constant(self) -> bool:
        return self.poly.deg_x == 0

    def __str__(self):
        return str(self.poly)
