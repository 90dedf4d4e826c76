from fractions import Fraction

import pytest
from conftest import random_poly, rng_for

from rittkit import (QQ, FieldExtensionRequiredError, HypothesisViolationError,
                     Poly, chebyshev, complete_decompositions, compose,
                     decompose_power_form, engstrom_refine, left_factor_solve,
                     right_factor_solve)
from rittkit.decompose import normalized_right_factor, verify_power_form

X = Poly.x(QQ)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def test_right_factor_solve_example():
    F = P(1, 0, 2, 0, 1)          # x^4 + 2x^2 + 1 = (x^2 + 1)^2
    g = P(0, 0, 1)                # x^2
    sols = right_factor_solve(F, g)
    assert sorted(str(h) for h in sols) == ["-x^2 - 1", "x^2 + 1"]
    for h in sols:
        assert compose(g, h) == F
    assert right_factor_solve(P(1, 1, 0, 0, 1), g) == []


def test_left_factor_solve_example():
    F = compose(P(1, 2, 1), P(0, 0, 3, 1))
    h = P(0, 0, 3, 1)
    g = left_factor_solve(F, h)
    assert g == P(1, 2, 1)
    assert compose(g, h) == F
    # degree mismatch yields no factor rather than an error
    assert left_factor_solve(P(0, 0, 0, 1), P(0, 0, 1)) is None


def test_factor_roundtrip_random():
    rng = rng_for("factor-roundtrip")
    for _ in range(100):
        g = random_poly(rng, rng.randint(2, 4))
        h = random_poly(rng, rng.randint(2, 4))
        F = compose(g, h)
        assert left_factor_solve(F, h) == g
        assert any(compose(g, cand) == F
                   for cand in right_factor_solve(F, g))


def test_normalized_right_factor():
    F = compose(P(1, 2, 1), P(0, 1, 0, 1))
    got = normalized_right_factor(F, 3)
    assert got is not None
    g, h = got
    assert compose(g, h) == F
    assert h.leading() == 1 and not h.constant_term()
    assert normalized_right_factor(P(3, 1, 0, 0, 1), 2) is None


def test_complete_decompositions_quartic():
    chains = complete_decompositions(P(0, 0, 0, 0, 1))   # x^4
    assert all(c.recompose() == P(0, 0, 0, 0, 1) for c in chains)
    assert any(c.degree_sequence() == (2, 2) for c in chains)


def test_complete_decompositions_chebyshev6():
    T6 = chebyshev(6)
    assert T6 == P(-2, 0, 9, 0, -6, 0, 1)
    chains = complete_decompositions(T6)
    for c in chains:
        assert c.recompose() == T6
    seqs = {c.degree_sequence() for c in chains}
    assert (2, 3) in seqs and (3, 2) in seqs
    target = (P(-2, 0, 1), P(0, -3, 0, 1))   # T2 o T3
    assert any(tuple(c.factors) == target for c in chains)


def test_complete_decompositions_indecomposable():
    chains = complete_decompositions(P(1, 1, 0, 1))
    assert len(chains) == 1
    assert chains[0].degree_sequence() == (3,)


def test_engstrom_example():
    a, b = P(0, 0, 1), P(0, 1, 1)                  # x^2, x^2 + x
    c, d = P(1, -2, 1), P(1, 1, 1)                 # (x-1)^2, x^2 + x + 1
    assert compose(a, b) == compose(c, d)
    cert = engstrom_refine(a, b, c, d)
    assert cert.verify(a, b, c, d)
    assert cert.ell is not None
    assert cert.ell.to_poly() == P(1, 1)           # x + 1


def test_engstrom_monomial_case():
    # coprime degrees: x^2 o x^3 = x^3 o x^2
    a, b = P(0, 0, 1), P(0, 0, 0, 1)
    cert = engstrom_refine(a, b, b, a)
    assert cert.verify(a, b, b, a)


def test_engstrom_random():
    # a o b = c o d via a = g, b = m o h, c = g o m, d = h
    rng = rng_for("engstrom")
    for _ in range(100):
        g = random_poly(rng, rng.randint(2, 3))
        h = random_poly(rng, rng.randint(2, 3))
        m = random_poly(rng, rng.randint(1, 2))
        a, bq = g, compose(m, h)
        c, dq = compose(g, m), h
        assert compose(a, bq) == compose(c, dq)
        cert = engstrom_refine(a, bq, c, dq)
        assert cert.verify(a, bq, c, dq)


def test_verify_power_form():
    # F = x^2 (x + 1)^3
    F = P(0, 0, 1) * P(1, 1) ** 3
    assert verify_power_form(F, 2, 3) == P(1, 1)


def test_power_form_errors():
    # x^3 + x + 1 is not a cube over any field
    F = P(0, 0, 1) * P(1, 1, 0, 1)
    with pytest.raises(HypothesisViolationError):
        verify_power_form(F, 2, 3)
    with pytest.raises(HypothesisViolationError):
        decompose_power_form(F, X, 2, 3)
    # 2 (x + 1)^3 is a cube only after adjoining the cube root of 2
    with pytest.raises(FieldExtensionRequiredError):
        verify_power_form(P(0, 0, 2) * P(1, 1) ** 3, 2, 3)


def test_decompose_power_form_example():
    # A = x^3 (x + 1)^2, B = x^2; A o B = x^6 (x^2+1)^2 = x^s P^n with s=6, n=2
    A = P(0, 0, 0, 1) * P(1, 1) ** 2
    B = P(0, 0, 1)
    split = decompose_power_form(A, B, 6, 2)
    ell = split.ell
    left = compose(Poly.monomial(QQ, split.j) * split.P1 ** 2, ell.to_poly())
    right = compose(ell.inverse().to_poly(),
                    Poly.monomial(QQ, split.k) * split.P2 ** 2)
    assert left == A and right == B
    assert split.j == 3 and split.P1 == P(1, 1)
    assert split.k == 2
