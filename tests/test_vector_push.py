"""The x-push on integer vectors, against the routes it replaced.

`msclass._push_x` must equal `reference_push`, the resultant route, over Q
and Q(zeta m); `ring_dot`, the cyclotomic `dense_mul` and `Poly.evaluate`
at a rational must equal the field's own products.  Structural guards
count the scalars (`CycElem._make` and `Fraction` constructions) one push
and one evaluation build, and the cache of `splitting_tables` stays at
its bound.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import (QQ, BivarPoly, CycElem, Poly, cyclotomic_field, dml,
                     parse_curve, parse_poly)
from rittkit.field import (SPLITTING_TABLES_CACHED, dense_mul, is_prime,
                           ring_dot, splitting_tables)
from rittkit.msclass import _push_x

from test_power_sum_image import FIELDS, polys, reference_push, scalars

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)


def counting_scalars(monkeypatch) -> list:
    """Count every CycElem._make and Fraction construction from now on."""
    count = [0]
    make = CycElem.__dict__["_make"].__func__
    new = Fraction.__new__

    def counted_make(cls, *args):
        count[0] += 1
        return make(cls, *args)

    def counted_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(CycElem, "_make", classmethod(counted_make))
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    return count


# -- the push against the resultant route ------------------------------------

@st.composite
def push_cases(draw):
    """(G, f): G of x-degree 0-3 and y-degree 0-2 with non-integral
    coefficients; its leading x-coefficient, a Poly in y, is drawn
    non-monic and, in half the cases, with roots among the first integer
    samples 0, 1, 2, which the push must skip."""
    K = draw(st.sampled_from(FIELDS))
    f = draw(polys(K, 1, 3))
    n, dy = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    rows = [draw(polys(K, 0, dy)) for _ in range(n)]
    lead = draw(polys(K, 0, max(dy - 1, 0)))
    for r in draw(st.lists(st.integers(0, 2), max_size=2, unique=True)):
        lead = lead * Poly.make(K, [-r, 1])
    x_rows = BivarPoly.make(K, rows + [lead])   # rows by the power of x
    return x_rows.transpose(), f


@PROPERTY
@given(push_cases())
def test_push_is_the_resultant_push(case):
    G, f = case
    assert _push_x(G, f) == reference_push(G, f)


def test_push_skips_the_samples_where_the_lead_vanishes():
    K = cyclotomic_field(5)
    G = parse_curve("1/3*y*(y - 1)*(y - 2)*x^2 + (z*y + 1/2)*x + y^3 - z",
                    K).poly
    f = parse_poly("z*x^2 + 1/2*x", K)
    assert _push_x(G, f) == reference_push(G, f)


# -- structural guard: scalars only at the boundary --------------------------

SHAPES = [(1, 1, 2), (2, 1, 3), (4, 1, 3), (6, 1, 3), (3, 3, 2), (6, 2, 2)]


def random_case(K, n, dy, d, seed):
    """G of x-degree n and y-degree dy, and f of degree d, with random
    coefficients of denominators up to 4."""
    rng = random.Random(seed)

    def scalar():
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for _ in range(K.degree)]
        return v[0] if K == QQ else CycElem(K, v)

    def poly(degree):
        while True:
            p = Poly.make(K, [scalar() for _ in range(degree + 1)])
            if p.degree == degree:
                return p
    x_rows = BivarPoly.make(K, [poly(dy) for _ in range(n + 1)])
    return x_rows.transpose(), poly(d)


@pytest.mark.parametrize("m", [1, 5, 7])
@pytest.mark.parametrize("n,dy,d", SHAPES)
def test_push_builds_scalars_linear_in_its_output(monkeypatch, m, n, dy, d):
    """At most 8 scalars per sample and output coefficient: the products
    of the scalar loops built 15 to 81 per unit on these shapes."""
    K = QQ if m == 1 else cyclotomic_field(m)
    G, f = random_case(K, n, dy, d, f"guard-{m}-{n}-{dy}-{d}")
    count = counting_scalars(monkeypatch)
    out = _push_x(G, f)
    samples = G.deg_y * d + 1
    coefficients = sum(len(r.coeffs) for r in out.rows)
    assert count[0] <= 8 * (samples + coefficients)


# -- the integer kernels against the field's products -------------------------

def as_vector(K, c):
    c = K.coerce(c)
    return (c.numerator,) if K == QQ else c.nums


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_ring_dot_is_the_field_sum_of_products(K, data):
    ints = st.lists(st.integers(-50, 50), min_size=K.degree,
                    max_size=K.degree)
    xs = data.draw(st.lists(ints, max_size=5))
    ys = data.draw(st.lists(ints, min_size=len(xs), max_size=len(xs)))
    start = data.draw(st.one_of(st.just(()), ints))
    total = K.from_ints(list(start) or [0], 1)
    for x, y in zip(xs, ys):
        total = total + K.from_ints(list(x), 1) * K.from_ints(list(y), 1)
    assert tuple(ring_dot(xs, ys, K.order, start)) == as_vector(K, total)


@PROPERTY
@given(st.sampled_from(FIELDS[1:]), st.data())
def test_cyclotomic_product_is_the_schoolbook(K, data):
    a = data.draw(st.lists(scalars(K), max_size=6))
    b = data.draw(st.lists(scalars(K), max_size=6))
    top = data.draw(st.one_of(st.none(), st.integers(0, 12)))
    n = len(a) + len(b) - 1 if top is None else top + 1
    expect = [K.zero()] * max(n, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                expect[i + j] = expect[i + j] + x * y
    assert dense_mul(a, b, K.zero(), top) == expect


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_evaluate_at_a_rational_is_horner(K, data):
    p = data.draw(polys(K, 0, 8))
    v = data.draw(st.one_of(st.integers(-20, 20),
                            st.fractions(-20, 20, max_denominator=9)))
    acc = K.zero()
    for c in reversed(p.coeffs):
        acc = acc * v + c
    assert p.evaluate(v) == acc
    assert p.evaluate(K.coerce(v)) == acc


def test_evaluate_at_a_rational_builds_one_scalar(monkeypatch):
    K = cyclotomic_field(7)
    z = K.zeta()
    p = Poly.make(K, [z ** k / (k + 1) for k in range(12)])
    v = Fraction(3, 2)
    count = counting_scalars(monkeypatch)
    p.evaluate(v)
    assert count[0] == 1


# -- the bounded table cache --------------------------------------------------

def test_splitting_tables_cache_stays_bounded():
    K = cyclotomic_field(5)
    sq = parse_poly("x^2 + z", K)
    diag = parse_curve("y - x", K)
    primes = [p for p in range(11, 2000) if p % 5 == 1 and is_prime(p)]
    assert len(primes) > 3 * SPLITTING_TABLES_CACHED
    splitting_tables.cache_clear()
    for p in primes:
        dml.return_set_modp(sq, sq, (Fraction(2), Fraction(3)), diag, p, 3)
        assert splitting_tables.cache_info().currsize <= (
            SPLITTING_TABLES_CACHED)
    assert splitting_tables.cache_info().maxsize == SPLITTING_TABLES_CACHED
