"""Reference arithmetic for the benchmark's input generators and checks.

Polynomials are lists of `Fraction` (or int) coefficients in ascending
degree with no trailing zeros.  Nothing here imports `rittkit`: the
generators build every input and every expected answer with these
helpers, so a check never relies on the code it is checking.
"""

from __future__ import annotations

from fractions import Fraction

# Two primes for modular fingerprints of exact answers.
PRIMES = (2_147_483_629, 2_305_843_009_213_693_951)


def trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def add(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)])


def scale(a, c):
    return trim([c * x for x in a])


def mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def compose(f, g):
    """f(g(x))."""
    out = []
    for c in reversed(f):
        out = add(mul(out, g), [c])
    return out


def evaluate(f, t):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * t + c
    return acc


def derivative(a):
    return trim([i * a[i] for i in range(1, len(a))])


def monic(a):
    return [Fraction(c) / a[-1] for c in a]


def chebyshev(n):
    """T_n with T_n(x + 1/x) = x^n + x^-n, the convention of rittkit."""
    t0, t1 = [Fraction(2)], [Fraction(0), Fraction(1)]
    for _ in range(n - 1):
        t0, t1 = t1, add(mul([0, 1], t1), scale(t0, -1))
    return t1


# -- arithmetic modulo a prime -----------------------------------------------

def mod_scalar(c, p):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def to_modp(a, p):
    return [mod_scalar(c, p) for c in a]


def _trim_p(a):
    while a and not a[-1]:
        a.pop()
    return a


def _rem_p(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        _trim_p(a)
    return a


def gcd_degree_modp(a, b, p):
    """Degree of gcd(a mod p, b mod p); -1 when both vanish mod p."""
    a, b = _trim_p(to_modp(a, p)), _trim_p(to_modp(b, p))
    while b:
        a, b = b, _rem_p(a, b, p)
    return len(a) - 1


def coprime(a, b):
    """True when a and b are certainly coprime over Q.

    A common factor over Q survives reduction modulo any prime that keeps
    both leading coefficients, so a constant gcd modulo one such prime
    proves coprimality.
    """
    p = PRIMES[0]
    if not mod_scalar(a[-1], p) or not mod_scalar(b[-1], p):
        return False
    return gcd_degree_modp(a, b, p) == 0


def squarefree(a):
    return coprime(a, derivative(a))


def resultant_modp(a, b, p):
    """Res(a, b) modulo p by the Euclidean remainder sequence."""
    a, b = _trim_p(to_modp(a, p)), _trim_p(to_modp(b, p))
    acc, sign = 1, 1
    while len(b) > 1:
        r = _rem_p(a, b, p)
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        acc = acc * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    acc = acc * pow(b[0], len(a) - 1, p) % p
    return acc * sign % p
