"""Exact or symbolic big constants for the uniform period bounds.

Values are kept as exact integers while they fit in EXACT_BIT_THRESHOLD
bits and become symbolic expression trees (add, mul, pow, max, half)
beyond that.  A halving node evaluates only when its child is an exact
even integer; otherwise it stays symbolic and carries its meaning as data.
"""

from __future__ import annotations

import math

from .record import Record

EXACT_BIT_THRESHOLD = 10 ** 6
LOG2_SATURATION = 1e308

INT = "int"
ADD = "add"
MUL = "mul"
POW = "pow"
MAX = "max"
HALF = "half"


class ConstantExpr(Record):
    kind: str
    value: int | None = None
    children: tuple = ()

    # -- constructors ----------------------------------------------------
    @staticmethod
    def integer(v: int) -> "ConstantExpr":
        return ConstantExpr(INT, value=int(v))

    @staticmethod
    def add(a: "ConstantExpr", b: "ConstantExpr") -> "ConstantExpr":
        if a.is_exact() and b.is_exact():
            s = a.value + b.value
            if s.bit_length() <= EXACT_BIT_THRESHOLD:
                return ConstantExpr.integer(s)
        return ConstantExpr(ADD, children=(a, b))

    @staticmethod
    def mul(a: "ConstantExpr", b: "ConstantExpr") -> "ConstantExpr":
        if a.is_exact() and b.is_exact():
            bits = a.value.bit_length() + b.value.bit_length()
            if bits <= EXACT_BIT_THRESHOLD + 1:
                p = a.value * b.value
                if p.bit_length() <= EXACT_BIT_THRESHOLD:
                    return ConstantExpr.integer(p)
        return ConstantExpr(MUL, children=(a, b))

    @staticmethod
    def power(base: "ConstantExpr", exp: "ConstantExpr") -> "ConstantExpr":
        if base.is_exact() and exp.is_exact():
            if base.value in (0, 1):
                return ConstantExpr.integer(base.value if exp.value else 1)
            bits = exp.value * max(1, base.value.bit_length())
            if bits <= EXACT_BIT_THRESHOLD:
                v = base.value ** exp.value
                if v.bit_length() <= EXACT_BIT_THRESHOLD:
                    return ConstantExpr.integer(v)
        return ConstantExpr(POW, children=(base, exp))

    @staticmethod
    def maximum(a: "ConstantExpr", b: "ConstantExpr") -> "ConstantExpr":
        c = compare(a, b)
        if c is not None:
            return a if c >= 0 else b
        return ConstantExpr(MAX, children=(a, b))

    @staticmethod
    def half(a: "ConstantExpr") -> "ConstantExpr":
        if a.is_exact() and a.value % 2 == 0:
            return ConstantExpr.integer(a.value // 2)
        return ConstantExpr(HALF, children=(a,))

    # -- structure ---------------------------------------------------------
    def is_exact(self) -> bool:
        return self.kind == INT

    def log2_bounds(self) -> tuple:
        """(lo, hi) with lo <= log2(value) <= hi, up to float rounding.

        A power whose exponent may pass 2^1000 clamps the exponent there:
        lo stays a lower bound and hi becomes inf.
        """
        if self.kind == INT:
            if self.value <= 0:
                return float("-inf"), float("-inf")
            bits = self.value.bit_length()
            if bits < 900:
                x = math.log2(self.value)
                return x, x
            return float(bits - 1), float(bits)
        kids = [c.log2_bounds() for c in self.children]
        if self.kind == ADD:
            return (max(lo for lo, _ in kids),
                    max(hi for _, hi in kids) + 1.0)
        if self.kind == MUL:
            return (min(LOG2_SATURATION, sum(lo for lo, _ in kids)),
                    sum(hi for _, hi in kids))
        if self.kind == POW:
            (blo, bhi), (elo, ehi) = kids
            exp = self.children[1]
            if exp.is_exact() and exp.value.bit_length() <= 1000:
                e_lo = e_hi = float(exp.value)
            else:
                e_lo = 2.0 ** min(1000.0, elo)
                e_hi = 2.0 ** ehi if ehi <= 1000.0 else float("inf")
            return min(LOG2_SATURATION, e_lo * blo), e_hi * bhi
        if self.kind == MAX:
            return max(lo for lo, _ in kids), max(hi for _, hi in kids)
        if self.kind == HALF:
            return kids[0][0] - 1.0, kids[0][1] - 1.0
        raise ValueError(self.kind)

    def normalized(self) -> "ConstantExpr":
        """Re-run constructor simplification bottom-up."""
        if self.kind == INT:
            return self
        kids = tuple(c.normalized() for c in self.children)
        if self.kind == ADD:
            return ConstantExpr.add(*kids)
        if self.kind == MUL:
            return ConstantExpr.mul(*kids)
        if self.kind == POW:
            return ConstantExpr.power(*kids)
        if self.kind == MAX:
            return ConstantExpr.maximum(*kids)
        return ConstantExpr.half(*kids)

    def __str__(self):
        if self.kind == INT:
            if self.value.bit_length() > 256:
                return (f"2^~{self.log2_bounds()[0]:.1f} "
                        f"({self.value.bit_length()} bits)")
            return str(self.value)
        a = self.children
        if self.kind == ADD:
            return f"({a[0]} + {a[1]})"
        if self.kind == MUL:
            return f"({a[0]} * {a[1]})"
        if self.kind == POW:
            return f"({a[0]})^({a[1]})"
        if self.kind == MAX:
            return f"max({a[0]}, {a[1]})"
        return f"({a[0]})/2"


def compare(a: ConstantExpr, b: ConstantExpr) -> int | None:
    """-1, 0, 1, or None when no certified comparison is available."""
    if a.is_exact() and b.is_exact():
        return (a.value > b.value) - (a.value < b.value)
    if a == b:
        return 0
    # same-base powers compare by exponent
    if a.kind == POW and b.kind == POW and a.children[0] == b.children[0]:
        base = a.children[0]
        if base.is_exact() and base.value >= 2:
            sub = compare(a.children[1], b.children[1])
            if sub is not None:
                return sub
    (alo, ahi), (blo, bhi) = a.log2_bounds(), b.log2_bounds()
    # decisive only when one side's lower bound clears the other's upper
    # bound by the slack plus float rounding; a clamped power has hi = inf,
    # so it is never found to be the smaller side
    if _clears(alo, bhi):
        return 1
    if _clears(blo, ahi):
        return -1
    return None


def _clears(lo: float, hi: float) -> bool:
    return lo - hi > 2.0 + 1e-9 * abs(lo)


def bound_c1(d: int, n: int, trace: list | None = None) -> ConstantExpr:
    """c1(d,2) = 2 d^4; c1(d,n) = c1(d,n-1) * 2 * d^(4 c1(d,n-1))."""
    if d < 2 or n < 2:
        raise ValueError("bound_c1 needs d >= 2 and n >= 2")
    cur = ConstantExpr.mul(ConstantExpr.integer(2),
                           ConstantExpr.power(ConstantExpr.integer(d),
                                              ConstantExpr.integer(4)))
    if trace is not None:
        trace.append((f"c1({d},2)", cur))
    for k in range(3, n + 1):
        expo = ConstantExpr.mul(ConstantExpr.integer(4), cur)
        cur = ConstantExpr.mul(
            cur, ConstantExpr.mul(ConstantExpr.integer(2),
                                  ConstantExpr.power(ConstantExpr.integer(d),
                                                     expo)))
        if trace is not None:
            trace.append((f"c1({d},{k})", cur))
    return cur


def bound_c(d: int, n: int, trace: list | None = None) -> ConstantExpr:
    """c(d,1) = 1; c(d,n) = max(c(d,n-1)^(n-1), d^(c1(d,n)) / 2)."""
    if d < 2 or n < 1:
        raise ValueError("bound_c needs d >= 2 and n >= 1")
    cur = ConstantExpr.integer(1)
    if trace is not None:
        trace.append((f"c({d},1)", cur))
    for k in range(2, n + 1):
        c1 = bound_c1(d, k, trace)
        left = ConstantExpr.power(cur, ConstantExpr.integer(k - 1))
        right = ConstantExpr.half(
            ConstantExpr.power(ConstantExpr.integer(d), c1))
        cur = ConstantExpr.maximum(left, right)
        if trace is not None:
            trace.append((f"c({d},{k})", cur))
    return cur
