"""Surface syntax for polynomials and plane curves.

Grammar: integer and fraction literals (`p/q`), variables `x` and `y`,
the cyclotomic generator `z`, operators `+ - * ^` with explicit `*`
(`+` and `-` are also unary signs on any factor, as in `x*-3`),
and parentheses.  An optional field header `field Q` or
`field Q(zeta N)` selects the coefficient field.  The printers on Poly
and BivarPoly emit exactly this grammar, so parse(print(p)) == p.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bivar import BivarCurve, BivarPoly
from .errors import ParseError, ResourceCapError
from .field import QQ, CycElem, FieldDescriptor, cyclotomic_field, power
from .poly import DEGREE_CAP, Poly

_TOKEN = re.compile(r"\s*(?:(\d+)|([xyz])|([()+\-*^/]))")

# Deepest parenthesis nesting accepted; each level costs four stack frames.
MAX_NESTING = 100

# Largest bit size a coefficient may reach while a power is expanded.  The
# degree cap leaves a constant base unbounded: 2^99999999 would need a
# 10^8-bit integer, while (x + 1)^10000 needs about 10^4 bits.
POWER_BITS_CAP = 100_000

# Largest estimated work (`_Parser.product`) of any one product; the caps
# above leave the total size unbounded: (x + 1)^10000 has 10^4
# coefficients of 10^4 bits.  The slowest power measured under the cap,
# (x^3 + y^2 + 7*z)^49 over Q(zeta 4), parses in 1.7 s (2-vCPU VM).
POWER_SIZE_CAP = 5_000_000

# Largest estimated work of all the products of one expression: the caps
# above bound each product, not their number, and a sum of powers under
# them costs the sum of their costs (eight copies of (x + 1)^2000 took
# 5 s).  The largest total the tests reach is 21.3 million, for the two
# factors of (x+1)^2235*(x+1)^2235 before their product meets
# POWER_SIZE_CAP.  The slowest input accepted, (x^3 + y^2 + 7*z)^49 four
# times joined by + over Q(zeta 4), reaches 21.6 million and parses in
# 3.7-4.4 s (2-vCPU x86_64 VM, Python 3.11).
EXPRESSION_WORK_CAP = 24_000_000

_FIELD_RE = re.compile(r"^\s*(?:field\s+)?Q(?:\s*\(\s*zeta\s+(\d+)\s*\))?\s*$")


def parse_field(text: str) -> FieldDescriptor:
    """Field from a header like "Q", "field Q", or "field Q(zeta 7)"."""
    m = _FIELD_RE.match(text)
    if not m:
        raise ParseError(f"unrecognized field description {text!r}")
    if m.group(1) is None:
        return QQ
    return cyclotomic_field(int(m.group(1)))


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                bad = len(text) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[bad]!r}",
                                 position=bad)
            break
        pos = m.end()
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
    return tokens


def _max_bits(p: BivarPoly) -> int:
    """Largest bit size of a numerator or denominator among p's coefficients."""
    return max((abs(v).bit_length() for r in p.rows for c in r.coeffs
                for v in ((c.den, *c.nums) if isinstance(c, CycElem)
                          else (c.numerator, c.denominator))), default=0)


class _Parser:
    def __init__(self, text: str, field: FieldDescriptor):
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.end = len(text)
        self.work = 0                       # estimated work of all products

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", position=self.end)
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != symbol:
            raise ParseError(f"expected {symbol!r}", position=tok[2])

    def product(self, a: BivarPoly, b: BivarPoly) -> BivarPoly:
        """a * b, for every product parsed, unless an estimate made first
        passes POWER_BITS_CAP (a square's coefficient bits) or
        POWER_SIZE_CAP, or brings the expression's total past
        EXPRESSION_WORK_CAP.

        A product coefficient has at most the factors' bits plus the log
        of the number of products summed into it.  Over Q the work is the
        output terms of one Kronecker product per pair of nonzero rows,
        times the bits; over Q(zeta m), one scalar product per pair of
        nonzero terms, each phi(m)^2 products of 64-bit limbs, counted as
        (phi(m) + 2)^2 for the fixed cost that dominates at small phi(m).
        """
        cyc = a.field.kind == "Cyclotomic"
        # per nonzero row: its nonzero terms over Q(zeta m), its length over Q
        sizes = [[sum(map(bool, r.coeffs)) if cyc else len(r.coeffs)
                  for r in p.rows if r] for p in (a, b)]
        na, nb = map(sum, sizes)
        bits = _max_bits(a) + _max_bits(b) + (min(na, nb) - 1).bit_length()
        if a is b and bits > POWER_BITS_CAP:
            raise ResourceCapError(
                f"a square with coefficients of {bits} bits is above the "
                f"power size cap POWER_BITS_CAP = {POWER_BITS_CAP} bits")
        work = (na * nb * (a.field.degree + 2) ** 2 * (bits // 64 + 1) if cyc
                else (len(sizes[1]) * na + len(sizes[0]) * nb) * bits)
        if work > POWER_SIZE_CAP:
            raise ResourceCapError(
                f"a product of estimated work {work} is above the power size "
                f"cap POWER_SIZE_CAP = {POWER_SIZE_CAP}")
        self.work += work
        if self.work > EXPRESSION_WORK_CAP:
            raise ResourceCapError(
                f"the expression's products reach estimated work "
                f"{self.work}, above the expression work cap "
                f"EXPRESSION_WORK_CAP = {EXPRESSION_WORK_CAP}")
        return a * b

    def const(self, c) -> BivarPoly:
        return BivarPoly.make(self.field,
                              [Poly.constant(self.field, c)])

    def parse(self) -> BivarPoly:
        out = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input at {tok[1]!r}", position=tok[2])
        return out

    def expr(self) -> BivarPoly:
        acc = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return acc
            self.next()
            rhs = self.term()
            acc = acc - rhs if tok[1] == "-" else acc + rhs

    def term(self) -> BivarPoly:
        acc = self.signed()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return acc
            self.next()
            acc = self.product(acc, self.signed())

    def signed(self) -> BivarPoly:
        """A power after any run of unary signs, read in a loop."""
        negate = False
        tok = self.peek()
        while tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.next()
            negate ^= tok[1] == "-"
            tok = self.peek()
        out = self.power()
        return -out if negate else out

    def power(self) -> BivarPoly:
        base = self.atom()
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != "^":
            return base
        self.next()
        exp = self.next()
        if exp[0] != "int":
            raise ParseError("exponent must be a nonnegative integer",
                             position=exp[2])
        n = exp[1]
        degree = max(base.deg_x, base.deg_y) * n
        if degree > DEGREE_CAP:
            raise ResourceCapError(
                f"exponent {n} gives degree {degree}, above the degree cap "
                f"DEGREE_CAP = {DEGREE_CAP}")
        return power(base, n, self.const(1), self.product)

    def atom(self) -> BivarPoly:
        tok = self.next()
        if tok[0] == "int":
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.next()
                den = self.next()
                if den[0] != "int" or den[1] == 0:
                    raise ParseError("fraction needs a nonzero integer "
                                     "denominator", position=den[2])
                return self.const(Fraction(tok[1], den[1]))
            return self.const(tok[1])
        if tok[0] == "var":
            if tok[1] == "x":
                return BivarPoly.make(self.field, [Poly.x(self.field)])
            if tok[1] == "y":
                return BivarPoly.make(self.field,
                                      [Poly(self.field, ()),
                                       Poly.constant(self.field, 1)])
            if self.field.kind != "Cyclotomic":
                raise ParseError("z needs a cyclotomic field header",
                                 position=tok[2])
            return self.const(self.field.zeta())
        if tok[0] == "op" and tok[1] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", position=tok[2])
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {tok[1]!r}", position=tok[2])


def parse_bivar(text: str, field: FieldDescriptor = QQ) -> BivarPoly:
    """Parse an expression in x and y as a BivarPoly."""
    return _Parser(text, field).parse()


def parse_poly(text: str, field: FieldDescriptor = QQ) -> Poly:
    """Parse a univariate polynomial in x."""
    b = parse_bivar(text, field)
    if b.deg_y > 0:
        raise ParseError("y is not allowed in a univariate polynomial")
    if b.is_zero():
        return Poly(field, ())
    return b.rows[0]


def parse_curve(text: str, field: FieldDescriptor = QQ) -> BivarCurve:
    """Parse an expression in x and y as a plane curve."""
    b = parse_bivar(text, field)
    if b.is_zero():
        raise ParseError("a curve needs a nonzero defining polynomial")
    return BivarCurve.make(b)
