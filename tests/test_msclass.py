import pytest
import sympy

from rittkit import (QQ, CollapsedImageError, HypothesisViolationError, Poly,
                     chebyshev, compose, curve_image, curve_period,
                     cyclotomic_field, ms_diagonal_curves, parse_curve,
                     parse_poly, periodic_graph_search, projection_profile)
from rittkit.msclass import graph_curve

X = Poly.x(QQ)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def test_diagonal_preserved():
    diag = parse_curve("y - x")
    f = P(1, 0, 1)
    img = curve_image(diag, f, f)
    assert img == diag


def test_graph_pushforward():
    # under (x^2, x^2) the parabola graph maps onto itself; under
    # (x^2, x^4) the pushed graph steepens to y = x^4
    C = parse_curve("y - x^2")
    assert curve_image(C, Poly.monomial(QQ, 2), Poly.monomial(QQ, 2)) == C
    img = curve_image(C, Poly.monomial(QQ, 2), Poly.monomial(QQ, 4))
    assert img == parse_curve("y - x^4")


def test_vertical_line_image():
    C = parse_curve("x - 3")
    f = P(1, 0, 1)
    img = curve_image(C, f, P(0, 0, 1))
    assert img == parse_curve("x - 10")
    prof = projection_profile(img)
    assert prof == {"x_constant": True, "y_constant": False}


SX, SY, SU, SV = sympy.symbols("x y u v")


def _rat(c):
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_image(curve: str, f: Poly, g: Poly):
    """sqf_part of Res_y(Res_x(G, u - f(x)), v - g(y)), monic in (u, v)."""
    def sym(p, t):
        return sum(_rat(c) * t ** i for i, c in enumerate(p.coeffs))
    G = sympy.sympify(curve.replace("^", "**"), {"x": SX, "y": SY})
    R = sympy.resultant(sympy.resultant(G, SU - sym(f, SX), SX),
                        SV - sym(g, SY), SY)
    return sympy.Poly(sympy.sqf_part(R), SU, SV).monic()


@pytest.mark.parametrize("curve", [
    "y^2 - x^3 - x",                  # generic
    "x - 2",                          # vertical line
    "y + 1",                          # horizontal line
    "(x - 1)^2*(y - x^2)",            # squared line times a generic factor
    "(x + 1)*(y - 2)*(x*y - 1)",      # both kinds of line content
])
def test_curve_image_vs_sympy(curve):
    f, g = P(0, 1, 1), P(0, -2, 0, 1)          # x^2 + x, x^3 - 2x
    img = curve_image(parse_curve(curve), f, g)
    ours = sum(_rat(img.poly.coeff(i, j)) * SU ** i * SV ** j
               for j in range(img.deg_y + 1) for i in range(img.deg_x + 1))
    assert sympy.Poly(ours, SU, SV).monic() == _sympy_image(curve, f, g)


def test_horizontal_line_image_cyclotomic_pinned():
    # (y - z)*(x*y - 1) under (x^2, x^2 + z): the line y = z goes to
    # y = z^2 + z, and x*y = 1 to x*(y - z) = 1; output as recorded
    # before curve_image became one push chain
    K = cyclotomic_field(5)
    img = curve_image(parse_curve("(y - z)*(x*y - 1)", K),
                      Poly.monomial(K, 2), parse_poly("x^2 + z", K))
    assert str(img) == ("((-1 - z^2)*x)*y^2 + ((-1 + z + z^3)*x "
                        "+ (1 + z^2))*y + (z*x + 1)")


def test_collapse_raises():
    # a horizontal line collapses when g is constant on it; a curve
    # with both projections constant cannot arise, but pushing the
    # zero-locus style inputs must keep raising rather than inventing one
    with pytest.raises(Exception):
        curve_image(parse_curve("x - 3"), Poly.constant(QQ, 5), P(1, 0, 1))


def test_period_one_parabola():
    C = parse_curve("y - x^2")
    sq = Poly.monomial(QQ, 2)
    per = curve_period(C, sq, sq, 4)
    assert per is not None
    assert per.period == 1
    assert per.verify(sq, sq)
    # a pair that pushes the graph away never returns
    assert curve_period(C, sq, Poly.monomial(QQ, 4), 3) is None


def test_period_three_zeta():
    K = cyclotomic_field(7)
    from rittkit import parse_curve as pc
    C = pc("x - z*y", K)
    sq = Poly.monomial(K, 2)
    per = curve_period(C, sq, sq, 5)
    assert per is not None
    assert per.period == 3
    assert per.verify(sq, sq)
    assert len(per.image_chain) == 4


def test_no_period_affine_shift():
    C = parse_curve("y - x - 1")
    sq = Poly.monomial(QQ, 2)
    assert curve_period(C, sq, sq, 6) is None


def test_ms_diagonal_odd_cubic():
    f = P(0, 1, 0, 1)                     # x^3 + x
    out = ms_diagonal_curves(f, 3)
    gs = sorted(str(d.g) for d in out)
    assert "x" in gs and "-x" in gs
    assert "x^3 + x" in gs
    curves = {d.curve for d in out}
    assert parse_curve("y - x") in curves
    assert parse_curve("y + x") in curves
    for d in out:
        assert d.certificate is not None
        assert d.certificate.verify(f, f)


def test_ms_diagonal_caps():
    f = P(0, 1, 0, 1)
    small = ms_diagonal_curves(f, 1)
    assert sorted(str(d.g) for d in small) == ["-x", "x"]


def test_ms_diagonal_quadratic():
    f = P(1, 0, 1)
    out = ms_diagonal_curves(f, 2)
    gs = sorted(str(d.g) for d in out)
    # the diagonal plus both orientations of the graph of f itself
    assert gs == ["x", "x^2 + 1", "x^2 + 1"]


def test_ms_diagonal_rejects_special():
    with pytest.raises(HypothesisViolationError):
        ms_diagonal_curves(Poly.monomial(QQ, 3), 3)
    with pytest.raises(HypothesisViolationError):
        ms_diagonal_curves(chebyshev(3), 3)


def test_periodic_graph_search_mixed_pair():
    # x^3 + x against x^3: no periodic graph at small degree and period
    assert periodic_graph_search(P(0, 1, 0, 1), Poly.monomial(QQ, 3),
                                 4, 4) == []


def test_periodic_graph_search_same_map():
    f = P(1, 0, 1)
    hits = periodic_graph_search(f, f, 2, 2)
    curves = {h.curve for h in hits}
    assert parse_curve("y - x") in curves
    for h in hits:
        assert h.certificate.verify(f, f)


def test_graph_curve_orientations():
    h = P(1, 0, 1)
    Cy = graph_curve(h, "y")
    assert Cy.contains(QQ.coerce(2), QQ.coerce(5))
    Cx = graph_curve(h, "x")
    assert Cx.contains(QQ.coerce(5), QQ.coerce(2))


def test_torsion_translate_periods():
    # x - zeta y on (x^2, x^2) has period equal to the multiplicative
    # order of 2 modulo the root order: over Q(zeta_{2^N - 1}) this is N
    for N in (2, 3, 4):
        m = 2 ** N - 1
        K = cyclotomic_field(m)
        from rittkit import parse_curve as pc
        C = pc("x - z*y", K)
        sq = Poly.monomial(K, 2)
        per = curve_period(C, sq, sq, N + 1)
        assert per is not None
        assert per.period == N
        assert per.verify(sq, sq)
