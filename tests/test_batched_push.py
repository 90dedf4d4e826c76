"""The non-graph image with one lead inverse per push and no work on unit
factors, against the routes it replaced.

`field.int_inverses` must give the canonical pair of each element's own
inverse; `bivar_squarefree` must equal the product route, which always
multiplies the line contents back, on inputs with line content; the
transpose must be the coefficient grid's and undo itself, and
`BivarCurve.make` must not see a scalar factor.  Structural guards count
the general inverses of a push, the bivariate products of a squarefree
part with constant contents and the scalings of a curve already scaled.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import (QQ, BivarCurve, BivarPoly, CycElem, Poly,
                     bivar_squarefree, cyclotomic_field)
from rittkit.bivar import _gcd_cofactor, _primitive_y
from rittkit.field import int_inverses, int_vectors
from rittkit.msclass import _push_x
from rittkit.poly import squarefree_part

from test_power_sum_image import FIELDS, scalars, small_q

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)

CONTENT_FIELDS = [QQ, cyclotomic_field(5), cyclotomic_field(7)]


def nonzero_scalars(field):
    """Nonzero scalars of the field, rational and, off Q, not."""
    if field == QQ:
        return small_q.filter(bool)
    return st.one_of(small_q.filter(bool).map(field.coerce),
                     scalars(field).filter(bool))


@st.composite
def bivars(draw, field, max_dx=2, max_dy=2):
    """Rows drawn whole, so zero rows and zero columns both occur."""
    dy = draw(st.integers(0, max_dy))
    rows = [draw(st.lists(st.one_of(st.just(0), scalars(field)),
                          max_size=max_dx + 1)) for _ in range(dy + 1)]
    return BivarPoly.make(field, rows)


def grid_transpose(G: BivarPoly) -> BivarPoly:
    """The transpose by coeff(i, j) over the whole grid."""
    return BivarPoly.make(G.field, [[G.coeff(i, j) for j in range(len(G.rows))]
                                    for i in range(G.deg_x + 1)])


# -- simultaneous inversion ---------------------------------------------------

@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_int_inverses_are_the_canonical_inverses(K, data):
    elems = data.draw(st.lists(nonzero_scalars(K), min_size=1, max_size=6))
    vecs = [int_vectors([K.coerce(a)])[0][0] for a in elems]
    expect = [(L, c) for [L], c in (int_vectors([1 / K.from_ints(v, 1)])
                                    for v in vecs)]
    assert int_inverses(K, vecs) == expect


# -- the transpose and the canonical curve ------------------------------------

@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_transpose_is_the_grid_and_undoes_itself(K, data):
    G = data.draw(bivars(K, 3, 3))
    if data.draw(st.booleans()):          # a zero x^0 column
        G = BivarPoly.make(K, [Poly.make(K, [0] + list(r.coeffs))
                               for r in G.rows])
    T = G.transpose()
    assert T == grid_transpose(G)
    assert all(not r or r.coeffs[-1] for r in T.rows)
    assert not T.rows or T.rows[-1]
    assert T.transpose() == G


def test_transpose_with_zero_rows_and_the_zero_poly():
    K = cyclotomic_field(5)
    z = K.zeta()
    G = BivarPoly.make(K, [[0, z], [], [], [0, 0, 1]])
    T = G.transpose()
    assert T == grid_transpose(G)
    assert T.rows[0].is_zero()
    assert T.transpose() == G
    zero = BivarPoly.make(K, [])
    assert zero.transpose() == zero and zero.transpose().is_zero()


@PROPERTY
@given(st.sampled_from(FIELDS), st.data())
def test_curve_ignores_a_scalar_factor(K, data):
    G = data.draw(bivars(K).filter(lambda G: not G.is_zero()))
    c = data.draw(nonzero_scalars(K))
    C = BivarCurve.make(G)
    assert BivarCurve.make(G.scale(c)) == C
    assert BivarCurve.make(C.poly) == C


# -- the content path against the product route -------------------------------

def reference_squarefree(G: BivarPoly) -> BivarPoly:
    """The product route: both line contents multiplied back, always."""
    cx, G = _primitive_y(G)
    cy, Gt = _primitive_y(grid_transpose(G))
    prim = grid_transpose(Gt)
    if prim.deg_y >= 1:
        prim = _gcd_cofactor(prim, prim.derivative_y())[1]
    lines = (BivarPoly.from_univar(squarefree_part(cx), "x")
             * BivarPoly.from_univar(squarefree_part(cy), "y"))
    return lines * prim


def line(K, a, var):
    return BivarPoly.from_univar(Poly.make(K, [-a, 1]), var)


@settings(PROPERTY, max_examples=40)
@given(st.sampled_from(CONTENT_FIELDS), st.data())
def test_line_content_matches_the_product_route(K, data):
    """(x - a)^i*(y - b)^j*G up to a scalar, i + j >= 1."""
    G = data.draw(bivars(K).filter(lambda G: not G.is_zero()))
    a, b = data.draw(scalars(K)), data.draw(scalars(K))
    i = data.draw(st.integers(0, 3))
    j = data.draw(st.integers(0 if i else 1, 3))
    H = G.scale(data.draw(nonzero_scalars(K)))
    for _ in range(i):
        H = H * line(K, a, "x")
    for _ in range(j):
        H = H * line(K, b, "y")
    cx, prim = _primitive_y(H)
    assert cx.degree >= 1 or _primitive_y(prim.transpose())[0].degree >= 1
    assert bivar_squarefree(H) == reference_squarefree(H)


# -- structural guards --------------------------------------------------------

def counting(monkeypatch, owner, name) -> list:
    """Count the calls of owner.name from now on."""
    count = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return count


def unit_bivar(rng, K, dx, dy):
    """A curve polynomial of bidegree (dx, dy) with +-z^j coefficients."""
    def unit():
        return rng.choice((-1, 1)) * K.zeta() ** rng.randrange(K.order)
    return BivarPoly.make(K, [[unit() for _ in range(dx + 1)]
                              for _ in range(dy + 1)])


def test_one_general_inverse_per_push(monkeypatch):
    """Five samples over Q(zeta 7) whose leads are not rational take one
    `_sequence_inverse`, not one each."""
    K = cyclotomic_field(7)
    z = K.zeta()
    rng = random.Random("one-inverse")
    f = Poly.make(K, [z, Fraction(1, 2), 1 + z ** 3])
    pushes = []
    while len(pushes) < 3:
        G = unit_bivar(rng, K, 2, 2)
        lead = G.transpose().rows[-1]
        if all(lead.evaluate(t).as_rational() is None for t in range(5)):
            pushes.append(G)
    count = counting(monkeypatch, CycElem, "_sequence_inverse")
    for G in pushes:
        assert G.deg_y * f.degree + 1 == 5
        before = count[0]
        _push_x(G, f)
        assert count[0] - before == 1


def test_constant_contents_take_no_bivariate_product(monkeypatch):
    K = cyclotomic_field(5)
    rng = random.Random("no-product")
    G = unit_bivar(rng, K, 2, 2)
    G = G * G.transpose()
    assert _primitive_y(G)[0].degree < 1
    assert _primitive_y(G.transpose())[0].degree < 1
    expect = reference_squarefree(G)
    count = counting(monkeypatch, BivarPoly, "__mul__")
    assert bivar_squarefree(G) == expect
    assert count[0] == 0


@pytest.mark.parametrize("m", [1, 5, 7])
def test_a_curve_with_lead_one_is_not_scaled(monkeypatch, m):
    K = QQ if m == 1 else cyclotomic_field(m)
    G = BivarPoly.make(K, [[0, 0, 1, Fraction(2, 3)], [], [5, 0, -1]])
    H = G.scale(3)
    count = counting(monkeypatch, Poly, "scale")
    assert BivarCurve.make(G).poly is G
    assert count[0] == 0
    assert BivarCurve.make(H).poly == G
    assert count[0] > 0
