"""M_inf, the common commuting iterate and f-tilde at degree d.

`m_infinity` and `common_commuting_iterate` walk the scales a -> a^d of
the centred map among the roots of unity of the field, as exponents of
one generator, and
`f_tilde_candidate` returns f without a search when deg f is not a
perfect power (Ritt's theorem on permutable polynomials).  None of them
builds an iterate of f there, which the compose wrapper below checks.
"""

import sys

import pytest

from rittkit import (QQ, CycElem, HypothesisViolationError, Poly, chebyshev,
                     common_commuting_iterate, compose, cyclotomic_field,
                     f_tilde_candidate, gamma_group, m_infinity, nth_roots,
                     parse_poly)
from rittkit.field import roots_of_unity


def test_m_infinity_past_the_degree_cap():
    # 101^2 = 1 mod 8, so zeta_8*x commutes with (x^101)^(o 2): all eight
    # maps, and the order-8 scales first at k = 2, so no stable_at
    K = cyclotomic_field(8)
    grp = m_infinity(Poly.monomial(K, 101), 2)
    assert {e.a for e in grp.elements} == set(roots_of_unity(K))
    assert all(e.b == 0 for e in grp.elements)
    assert grp.stable_at is None
    z = K.zeta()
    assert grp.generator.a ** 2 != 1 and grp.generator.a ** 4 != 1
    assert {e.a for e in m_infinity(Poly.monomial(K, 101), 1).elements} \
        == {K.one(), -K.one(), z ** 2, -z ** 2}


def test_common_commuting_iterate_is_the_cycle_lcm():
    # x^5 + x^2 commutes with w*x, w^3 = 1, first at k = 2: w -> w^5 = w^2
    f = parse_poly("x^5 + x^2", cyclotomic_field(3))
    assert common_commuting_iterate(f, 4) == 2
    assert common_commuting_iterate(f, 1) == 1
    assert m_infinity(f, 1).order() == 1
    assert m_infinity(f, 2).order() == 3


@pytest.fixture
def low_degree_compose(monkeypatch):
    """Wrap compose in every module so that it refuses to build a
    polynomial of degree above the given bound."""
    from rittkit import poly
    real = poly.compose
    limit = []

    def guarded(f, g, *args):
        out = real(f, g, *args)
        assert out.degree <= limit[0], "an iterate was built"
        return out
    for name, mod in list(sys.modules.items()):
        if name.startswith("rittkit") and getattr(mod, "compose", None) is real:
            monkeypatch.setattr(mod, "compose", guarded)
    return limit


@pytest.mark.parametrize("f,m", [("x^5 + x^2", 3), ("x^7 + x^3 + 2", 4),
                                 ("x^3 + x", 1), ("x^6 + x^3 - x", 3),
                                 ("x^2 + 1", 8)])
def test_no_iterate_is_built(low_degree_compose, f, m):
    f = parse_poly(f, QQ if m == 1 else cyclotomic_field(m))
    low_degree_compose.append(f.degree)
    m_infinity(f, 6)
    common_commuting_iterate(f, 6)
    assert f_tilde_candidate(f, 6) == f


def test_f_tilde_needs_a_disintegrated_map():
    for f in (Poly.monomial(QQ, 3), chebyshev(3)):
        with pytest.raises(HypothesisViolationError):
            f_tilde_candidate(f, 3)


def test_f_tilde_searches_perfect_power_degrees():
    g = parse_poly("x^2 + 1", QQ)
    assert f_tilde_candidate(compose(g, g), 2) == g


def test_roots_of_unity_are_taken_by_exponent(monkeypatch):
    # gamma_group, m_infinity and nth_roots index the roots of unity u^j
    # by j: no CycElem power, and no inverse but of a rational lead
    def refuse(*args):
        raise AssertionError("a CycElem power or inverse was taken")
    monkeypatch.setattr(CycElem, "__pow__", refuse)
    monkeypatch.setattr(CycElem, "_sequence_inverse", refuse)
    K = cyclotomic_field(105)
    f = parse_poly("x^211 + x", K)
    grp = gamma_group(f)
    assert grp.order() == 210
    assert m_infinity(f).order() == 210
    assert grp.generator.a * grp.generator.a != K.one()
    K9 = cyclotomic_field(9)
    z = K9.zeta()
    assert nth_roots(z, 3, K9) == []
    roots = nth_roots(z * z * z, 3, K9)
    assert len(roots) == 3 and all(r * r * r == z * z * z for r in roots)
