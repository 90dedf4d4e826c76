"""DecompositionChain.verify on real chains and on tampered ones."""

import pytest

from rittkit import (QQ, DecompositionChain, Poly, chebyshev,
                     complete_decompositions, compose, cyclotomic_field)
from rittkit.parser import parse_poly

TARGETS = [
    (QQ, "x^12"),
    (QQ, "x^4 + 2*x^3 + x^2 + 1"),
    (QQ, "x^6 + x"),
    (cyclotomic_field(3), "x^6 + z*x^3"),
    (cyclotomic_field(5), "(x^2 + z*x)^3 - x^2 - z*x"),
]


def _targets():
    return ([parse_poly(s, K) for K, s in TARGETS]
            + [chebyshev(30), Poly.monomial(QQ, 60)])


@pytest.mark.parametrize("f", _targets(), ids=str)
def test_real_chains_verify(f):
    chains = complete_decompositions(f)
    assert chains and all(ch.verify(f) for ch in chains)


def test_wrong_target_fails():
    f = chebyshev(12)
    for ch in complete_decompositions(f):
        assert not ch.verify(f + Poly.constant(QQ, 1))


def test_swapped_factors_fail():
    f = parse_poly("(x^3 + x)^2 + x^3 + x", QQ)
    (ch,) = complete_decompositions(f)
    swapped = DecompositionChain(ch.factors[::-1])
    assert ch.verify(f) and not swapped.verify(f)


def test_decomposable_factor_fails():
    f = chebyshev(12)
    ch = complete_decompositions(f)[0]
    merged = DecompositionChain((ch.factors[0],
                                 compose(ch.factors[1], ch.factors[2])))
    assert merged.recompose() == f and not merged.verify(f)


def test_linear_factor_fails():
    f = parse_poly("x^4 + x", QQ)
    ell = Poly.make(QQ, [0, 1])
    assert DecompositionChain((f,)).verify(f)
    assert not DecompositionChain((f, ell)).verify(f)


def test_non_normalized_inner_factor_fails():
    g, h = parse_poly("x^2", QQ), parse_poly("x^3 + x", QQ)
    f = compose(g, h)
    assert DecompositionChain((g, h)).verify(f)
    shifted = (compose(g, parse_poly("x - 1", QQ)),
               compose(parse_poly("x + 1", QQ), h))
    scaled = (compose(g, parse_poly("1/2*x", QQ)),
              compose(parse_poly("2*x", QQ), h))
    for factors in (shifted, scaled):
        ch = DecompositionChain(factors)
        assert ch.recompose() == f and not ch.verify(f)
