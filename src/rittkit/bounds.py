"""Exact or symbolic big constants for the uniform period bounds.

Values are kept as exact integers while they fit in EXACT_BIT_THRESHOLD
bits and become symbolic expression trees (add, mul, pow, max, half)
beyond that.  A halving node evaluates only when its child is an exact
even integer; otherwise it stays symbolic and carries its meaning as data.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice

from .record import Record

EXACT_BIT_THRESHOLD = 10 ** 6
LOG2_SATURATION = 1e308

INT, ADD, MUL, POW, MAX, HALF = "int", "add", "mul", "pow", "max", "half"


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
        lo stays a lower bound and hi becomes inf.  A node computes them
        once: the bound recurrence shares its terms, and the tree of
        c1(d,k) has about 2^k nodes.
        """
        return self._log2

    @cached_property
    def _log2(self) -> tuple:
        if self.kind == INT:
            if self.value <= 0:
                return float("-inf"), float("-inf")
            bits = self.value.bit_length()
            if bits < 900:
                x = math.log2(self.value)
                return x, x
            return float(bits - 1), float(bits)
        if self.kind == HALF:
            lo, hi = self.children[0].log2_bounds()
            return lo - 1.0, hi - 1.0
        (alo, ahi), (blo, bhi) = (c.log2_bounds() for c in self.children)
        if self.kind == ADD:
            return max(alo, blo), max(ahi, bhi) + 1.0
        if self.kind == MUL:
            return min(LOG2_SATURATION, alo + blo), ahi + bhi
        if self.kind == MAX:
            return max(alo, blo), max(ahi, bhi)
        exp = self.children[1]  # a power: base a, exponent b
        if exp.is_exact() and exp.value.bit_length() <= 1000:
            e_lo = e_hi = float(exp.value)
        else:
            e_lo = 2.0 ** min(1000.0, blo)
            e_hi = 2.0 ** bhi if bhi <= 1000.0 else float("inf")
        return min(LOG2_SATURATION, e_lo * alo), e_hi * ahi

    def normalized(self) -> "ConstantExpr":
        """Re-run constructor simplification bottom-up, once per node: the
        result shares its nodes as the term does."""
        return self if self.kind == INT else self._normalized

    @cached_property
    def _normalized(self) -> "ConstantExpr":
        return _KINDS[self.kind][0](*(c if c.kind == INT else c._normalized
                                      for c in self.children))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.value, self.children))

    def __eq__(self, other):
        """Structural equality, each pair of nodes compared once: shared
        nodes are not walked again, and a node that is the other node or
        hashes apart from it ends its branch at once."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen, stack = set(), [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if (hash(a) != hash(b) or a.kind != b.kind or a.value != b.value
                    or len(a.children) != len(b.children)):
                return False
            seen.add((id(a), id(b)))
            stack.extend(zip(a.children, b.children))
        return True

    def __str__(self):
        """The printed form of the tree expansion, so its length and time
        grow with the output, not with the shared nodes: the c1(d,k) of
        `bound_c1` print about 2^k nodes.  The CLI prints by label
        (`text`)."""
        return self.text({})

    def text(self, labels: dict) -> str:
        """The printed form, with a child whose id is a key of labels
        printed as its label."""
        if self.kind == INT:
            if self.value.bit_length() > 256:
                return (f"2^~{self.log2_bounds()[0]:.1f} "
                        f"({self.value.bit_length()} bits)")
            return str(self.value)
        return _KINDS[self.kind][1].format(
            *(labels.get(id(c)) or c.text(labels) for c in self.children))


# each symbolic kind: its constructor and its printed form
_KINDS = {ADD: (ConstantExpr.add, "({} + {})"),
          MUL: (ConstantExpr.mul, "({} * {})"),
          POW: (ConstantExpr.power, "({})^({})"),
          MAX: (ConstantExpr.maximum, "max({}, {})"),
          HALF: (ConstantExpr.half, "({})/2")}


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


def _terms(d: int, n: int):
    """(label, term) for c(d,1), then c1(d,k) and c(d,k) for k = 2..n.

    Each term is built from the one before and shared by those after:
    c1(d,2) = 2 d^4, c1(d,k) = c1(d,k-1) * 2 * d^(4 c1(d,k-1)), and
    c(d,1) = 1, c(d,k) = max(c(d,k-1)^(k-1), d^(c1(d,k)) / 2).
    """
    E, num = ConstantExpr, ConstantExpr.integer
    c, c1 = num(1), E.mul(num(2), E.power(num(d), num(4)))
    yield f"c({d},1)", c
    for k in range(2, n + 1):
        if k > 2:
            c1 = E.mul(c1, E.mul(num(2), E.power(num(d), E.mul(num(4), c1))))
        yield f"c1({d},{k})", c1
        c = E.maximum(E.power(c, num(k - 1)), E.half(E.power(num(d), c1)))
        yield f"c({d},{k})", c


def bound_c1(d: int, n: int, trace: list | None = None) -> ConstantExpr:
    """c1(d,n); trace gets c1(d,2), ..., c1(d,n)."""
    if d < 2 or n < 2:
        raise ValueError("bound_c1 needs d >= 2 and n >= 2")
    trace = [] if trace is None else trace
    # c1(d,k) is term 2k - 3: the odd ones up to c1(d,n)
    trace.extend(islice(_terms(d, n), 1, 2 * n - 2, 2))
    return trace[-1][1]


def bound_c(d: int, n: int, trace: list | None = None) -> ConstantExpr:
    """c(d,n); trace gets c(d,1), then c1(d,k) and c(d,k) for k = 2..n."""
    if d < 2 or n < 1:
        raise ValueError("bound_c needs d >= 2 and n >= 1")
    trace = [] if trace is None else trace
    trace.extend(_terms(d, n))
    return trace[-1][1]
