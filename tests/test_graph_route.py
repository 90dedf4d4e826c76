"""`curve_image` on graphs y = h(x) and x = h(y) against the bivariate route.

A graph whose image is a graph takes one `left_factor_solve`; any other
graph falls back to the two resultant pushes.  Either way the answer must
be the one the bivariate route gives when called directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import (QQ, BivarCurve, CycElem, Poly, bivar_squarefree,
                     compose, curve_image, cyclotomic_field)
from rittkit.msclass import _push_x, graph_curve
from rittkit.parser import parse_curve, parse_poly

GRAPH = settings(derandomize=True, max_examples=60, deadline=None,
                 database=None)

FIELDS = [QQ, cyclotomic_field(3), cyclotomic_field(5)]
small_q = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def bivariate_image(C, f, g):
    """The image by two x-pushes and the squarefree part, with no graph test."""
    return BivarCurve.make(bivar_squarefree(_push_x(_push_x(C.poly, f), g)))


def is_graph(C, orientation):
    P = C.poly if orientation == "y" else C.poly.transpose()
    return P.deg_y == 1 and P.rows[1].degree == 0


@st.composite
def polys(draw, field, min_degree, max_degree):
    def scalars():
        if field == QQ:
            return small_q
        return st.lists(small_q, min_size=field.degree,
                        max_size=field.degree).map(lambda v: CycElem(field, v))
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(scalars(), min_size=d, max_size=d))
    return Poly.make(field, coeffs + [draw(scalars().filter(bool))])


@GRAPH
@given(data=st.data(), field=st.sampled_from(FIELDS),
       orientation=st.sampled_from("yx"), composite=st.booleans())
def test_graph_image_matches_bivariate_route(data, field, orientation,
                                             composite):
    f, g = (data.draw(polys(field, 1, 2)) for _ in range(2))
    if composite:
        # h = r o f (r o g for x = h(y)): the image is the graph of g o r
        # (f o r), so the left-factor solve must succeed
        r = data.draw(polys(field, 1, 2))
        h = compose(r, f if orientation == "y" else g)
    else:
        h = data.draw(polys(field, 1, 3))
    C = graph_curve(h, orientation)
    img = curve_image(C, f, g)
    ref = bivariate_image(C, f, g)
    assert img == ref and str(img) == str(ref)
    if composite:
        assert is_graph(img, orientation)


def test_horizontal_line_takes_the_bivariate_route():
    f, g = parse_poly("x^2 + 1"), parse_poly("x^3 - 2*x")
    C = parse_curve("y - 2")
    assert curve_image(C, f, g) == bivariate_image(C, f, g)
    assert curve_image(C, f, g) == parse_curve("y - 4")


def test_linear_graph_is_a_graph_both_ways():
    # y = -x and x = -y are one curve; under (x^2 + z, x^2 + z) its image
    # is the diagonal, q = x in q o f == g o h
    K = cyclotomic_field(3)
    f = parse_poly("x^2 + z", K)
    C = graph_curve(parse_poly("-x", K), "y")
    assert C == graph_curve(parse_poly("-x", K), "x")
    img = curve_image(C, f, f)
    assert img == bivariate_image(C, f, f) == parse_curve("y - x", K)
