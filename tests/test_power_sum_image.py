"""The curve push by power sums, its rational scalar shortcut and the
shared interpolation basis, each against the route it replaced.

`_univar_image` must equal the resultant `resultant_y` gives;
`CycElem` products with a rational operand must give the (nums, den) of
the general vector product, and the inverse of a rational its reciprocal;
`interpolate_columns` must equal a column-by-column Newton interpolation.
A structural guard makes both resultants raise and asks `curve_image`
for the non-graph images the benchmark runs, so the push cannot fall
back to them.
"""

import hashlib
import random
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rittkit
from rittkit import (QQ, BivarCurve, BivarPoly, CycElem, Poly,
                     bivar_squarefree, curve_image, cyclotomic_field)
from rittkit.bivar import (_sample_points, interpolate_columns,
                           lagrange_interpolate, resultant_y)
from rittkit.field import dense_mul
from rittkit.msclass import _univar_image, _x_minus
from rittkit.parser import parse_curve, parse_field, parse_poly

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)

FIELDS = [QQ] + [cyclotomic_field(m) for m in (3, 5, 7, 8, 12)]
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def scalars(field):
    if field == QQ:
        return small_q
    return st.lists(small_q, min_size=field.degree,
                    max_size=field.degree).map(lambda v: CycElem(field, v))


@st.composite
def polys(draw, field, min_degree, max_degree):
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(scalars(field), min_size=d + 1, max_size=d + 1))
    lead = draw(scalars(field).filter(bool))
    return Poly.make(field, coeffs[:d] + [lead])


@st.composite
def image_cases(draw):
    """(h, f): deg h 0-8, deg f 1-4, h plain, with a repeated factor, or
    with the root 0; none of them monic unless drawn so."""
    K = draw(st.sampled_from(FIELDS))
    f = draw(polys(K, 1, 4))
    shape = draw(st.sampled_from(["plain", "repeated", "zero root"]))
    if shape == "plain":
        h = draw(polys(K, 0, 8))
    elif shape == "repeated":
        p = draw(polys(K, 1, 3))
        h = p * p * draw(polys(K, 0, 2))
    else:
        h = Poly.x(K) * draw(polys(K, 0, 7))
    return h, f


def reference_image(h, f):
    return resultant_y(BivarPoly.from_univar(h, "y"), _x_minus(f))


@PROPERTY
@given(image_cases(), st.integers(0, 2))
def test_univar_image_is_the_resultant(case, extra):
    h, f = case
    powers = [f ** k for k in range(1, h.degree + extra + 1)]
    assert _univar_image(h, f, powers) == reference_image(h, f)


# -- rational operands in CycElem --------------------------------------------

def general_product(a: CycElem, b: CycElem) -> CycElem:
    """The vector route: one integer product, reduced modulo Phi_m."""
    return CycElem._make(a.field, dense_mul(a.nums, b.nums, 0), a.den * b.den)


def as_pair(v: CycElem) -> tuple:
    return v.nums, v.den


CYC_FIELDS = FIELDS[1:]
wide_q = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                      max_denominator=10 ** 4)


@PROPERTY
@given(st.sampled_from(CYC_FIELDS), st.data())
def test_rational_operand_products_match_the_vector_product(K, data):
    r = K.coerce(data.draw(wide_q))
    v = data.draw(st.one_of(scalars(K), wide_q.map(K.coerce)))
    expect = as_pair(general_product(r, v))
    assert as_pair(r * v) == expect
    assert as_pair(v * r) == expect
    q = r.as_rational()
    if q.denominator == 1:
        assert as_pair(v * int(q)) == expect
    assert as_pair(v * q) == expect


@PROPERTY
@given(st.sampled_from(CYC_FIELDS), wide_q.filter(bool))
def test_rational_inverse_is_the_reciprocal(K, q):
    inv = K.coerce(q).inverse()
    assert as_pair(inv) == as_pair(K.coerce(1 / q))
    assert inv.den > 0 and gcd(inv.den, *inv.nums) == 1
    assert hash(inv) == hash(K.coerce(1 / q))


# -- one interpolation basis --------------------------------------------------

def parent_lagrange(field, points) -> Poly:
    """Newton's divided differences, one column at a time."""
    pts = list(points)
    if not pts:
        return Poly(field, ())
    diffs = [field.coerce(v) for _, v in pts]
    ts = [field.coerce(t) for t, _ in pts]
    total = Poly(field, ())
    basis = Poly.constant(field, 1)
    for k in range(len(pts)):
        if diffs[0]:
            total = total + basis.scale(diffs[0])
        if k == len(pts) - 1:
            break
        basis = basis * Poly.make(field, [-ts[k], 1])
        diffs = [(diffs[i + 1] - diffs[i]) / (ts[i + k + 1] - ts[i])
                 for i in range(len(diffs) - 1)]
    return total


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from(FIELDS), st.data())
def test_columns_share_one_basis(K, data):
    ts = data.draw(st.lists(st.one_of(st.integers(-20, 20), small_q),
                            min_size=0, max_size=9, unique=True))
    ncols = data.draw(st.integers(1, 4))
    cols = [data.draw(st.lists(scalars(K), min_size=len(ts),
                               max_size=len(ts))) for _ in range(ncols)]
    expect = [parent_lagrange(K, zip(ts, col)) for col in cols]
    assert interpolate_columns(K, ts, cols) == expect
    assert lagrange_interpolate(K, zip(ts, cols[0])) == expect[0]


# -- structural guard: curve_image runs no resultant -------------------------

def reference_push(G: BivarPoly, f: Poly) -> BivarPoly:
    """The x-push by one resultant_y and one interpolation per u-power."""
    field = G.field
    Gt = G.transpose()
    lead = Gt.rows[-1]
    ys = list(_sample_points(field, G.deg_y * f.degree + 1,
                             lambda y0: not lead.evaluate(y0)))
    slices = [reference_image(Gt.eval_x(y0), f) for y0 in ys]
    return BivarPoly.make(field, [
        parent_lagrange(field, [(y0, S.coeff(k)) for y0, S in zip(ys, slices)])
        for k in range(G.deg_x + 1)])


def unit(rng, K):
    """+-z^j, the coefficients of the benchmark's random curves."""
    return rng.choice((-1, 1)) * K.zeta() ** rng.randrange(K.order - 1)


def random_curve(rng, K, dx, dy):
    """A curve with unit coefficients and no factor in x alone or y alone."""
    while True:
        G = BivarPoly.make(K, [Poly.make(K, [unit(rng, K)
                                             for _ in range(dx + 1)])
                               for _ in range(dy + 1)])
        if (G.content_y().degree < 1
                and G.transpose().content_y().degree < 1):
            return BivarCurve.make(G)


def _raise(*args, **kwargs):
    raise AssertionError("curve_image called a resultant")


@pytest.fixture
def no_resultants(monkeypatch):
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("rittkit"):
            for name in ("resultant_univar", "resultant_y"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, _raise)


@pytest.mark.parametrize("m", [5, 7])
def test_curve_image_runs_no_resultant(m, request):
    K = cyclotomic_field(m)
    rng = random.Random(f"power-sum-guard-{m}")
    cases = []
    for dx, dy in [(2, 1), (1, 2), (2, 2)] * 2:
        C = random_curve(rng, K, dx, dy)
        f = Poly.make(K, [unit(rng, K), 0, 1])
        g = Poly.make(K, [unit(rng, K), 0, 1])
        ref = BivarCurve.make(bivar_squarefree(
            reference_push(reference_push(C.poly, f), g)))
        cases.append((C, f, g, ref))
    request.getfixturevalue("no_resultants")
    with pytest.raises(AssertionError):
        rittkit.resultant_y(cases[0][0].poly, cases[0][0].poly)
    for C, f, g, ref in cases:
        assert curve_image(C, f, g) == ref


def test_depth_two_chain_pin(no_resultants):
    """ROADMAP item 5's chain: y^2 - x^3 - z*x under (x^3 + x, x^3 + x)."""
    K = parse_field("Q(zeta 5)")
    f = parse_poly("x^3 + x", K)
    C = curve_image(curve_image(parse_curve("y^2 - x^3 - z*x", K), f, f),
                    f, f)
    assert (C.deg_x, C.deg_y) == (27, 18)
    assert hashlib.sha256(str(C).encode()).hexdigest() == (
        "8f37d9ca652c3eddcd4889de384096716eecddf2de9c17e3012a73db9d1a4413")
