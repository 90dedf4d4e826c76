import pytest

from rittkit import QQ, Poly
from rittkit.errors import ParseError
from rittkit.parser import parse_poly


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


@pytest.mark.parametrize("text, expected", [
    ("x + -3", P(-3, 1)),
    ("x*-3", P(0, -3)),
    ("x*-3^2", P(0, -9)),
    ("--x", P(0, 1)),
    ("+-+x", P(0, -1)),
    ("-x^2 + 1", P(1, 0, -1)),
    ("2*-(x + 1)", P(-2, -2)),
])
def test_unary_signs(text, expected):
    assert parse_poly(text) == expected


def test_long_sign_run_does_not_recurse():
    assert parse_poly("-" * 100_000 + "x") == P(0, 1)
    assert parse_poly("-" * 100_001 + "x") == P(0, -1)


@pytest.mark.parametrize("text, position", [("x +", 3), ("x*-", 3),
                                            ("-", 1)])
def test_dangling_sign_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.position == position
