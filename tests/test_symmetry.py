import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import rng_for

import rittkit
from rittkit import (QQ, LinearPoly, Poly, align_iterates, chebyshev,
                     common_commuting_iterate, commutes_with_iterate, compose,
                     conjugate, cyclotomic_field, gamma_group, iterate,
                     m_infinity, roots_of_unity)
from rittkit.conjugacy import _scale_polynomial
from rittkit.poly import deflate, poly_divmod
from rittkit.roots import in_field_roots

X = Poly.x(QQ)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def check_group_axioms(grp):
    elems = list(grp.elements)
    assert any(e.is_identity() for e in elems)
    for e1 in elems:
        for e2 in elems:
            prod = e1.after(e2)
            assert any(prod.a == e.a and prod.b == e.b for e in elems)
        inv = e1.inverse()
        assert any(inv.a == e.a and inv.b == e.b for e in elems)


def test_gamma_odd_cubic():
    grp = gamma_group(P(0, 1, 0, 1))       # x^3 + x
    assert grp.kind == "Finite"
    assert grp.order() == 2
    assert sorted(str(e) for e in grp.elements) == ["-x", "x"]
    check_group_axioms(grp)
    assert grp.generator is not None
    # companions satisfy A o ell = L o A
    A = P(0, 1, 0, 1)
    for ell, L in zip(grp.elements, grp.companions):
        assert compose(A, ell.to_poly()) == compose(L.to_poly(), A)


def test_gamma_shifted_cubic():
    # the recentering x -> x - 1/3 reveals a second symmetry of x^3 + x^2
    A = P(0, 0, 1, 1)
    grp = gamma_group(A)
    assert grp.kind == "Finite"
    assert grp.order() == 2
    ells = sorted(str(e) for e in grp.elements)
    assert ells == ["-x - 2/3", "x"]
    for ell, L in zip(grp.elements, grp.companions):
        assert compose(A, ell.to_poly()) == compose(L.to_poly(), A)


def test_gamma_infinite():
    assert gamma_group(P(1, 0, 1)).kind == "Infinite"    # x^2 + 1
    assert gamma_group(Poly.monomial(QQ, 4)).kind == "Infinite"


def test_gamma_cyclotomic_enlargement():
    # over Q the quartic x^4 + x has only the identity; over Q(zeta_3)
    # the symmetry x -> zeta_3 x appears
    A = P(0, 1, 0, 0, 1)
    grp_q = gamma_group(A)
    assert grp_q.order() == 1
    K = cyclotomic_field(3)
    AK = Poly.make(K, [K.coerce(c) for c in A.coeffs])
    grp_k = gamma_group(AK)
    assert grp_k.order() == 3
    check_group_axioms(grp_k)


def test_gamma_conjugation_transport():
    rng = rng_for("gamma-transport")
    A = P(0, 1, 0, 1)
    for _ in range(10):
        a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3))
        ell = LinearPoly.make(QQ, a, b)
        B = compose(ell.to_poly(),
                    compose(A, ell.inverse().to_poly()))
        grp = gamma_group(B)
        assert grp.order() == 2


def test_m_infinity_examples():
    grp = m_infinity(P(1, 0, 1))          # x^2 + 1
    assert grp.order() == 1
    assert grp.stable_at == 1
    grp3 = m_infinity(P(0, 1, 0, 1))      # x^3 + x commutes with -x
    assert grp3.order() == 2
    check_group_axioms(grp3)


def test_m_infinity_subgroup_of_gamma():
    # every symmetry of an iterate normalizes the orbit structure; the
    # stabilized group sits inside the symmetries of every later iterate
    for f in (P(0, 1, 0, 1), P(1, 0, 1), P(7, 0, 1, 1)):
        grp = m_infinity(f, 3)
        for ell in grp.elements:
            found = False
            for n in range(1, 4):
                F = iterate(f, n)
                for cand in (compose(F, ell.to_poly()),):
                    if cand == compose(F, ell.to_poly()):
                        found = True
            assert found


def test_commutes_with_iterate():
    f = P(0, 1, 0, 1)
    assert commutes_with_iterate(f, Poly.make(QQ, [0, -1]), 3) == 1
    assert commutes_with_iterate(f, f, 3) == 1
    assert commutes_with_iterate(f, P(1, 1), 3) is None
    # x -> zeta_3 x commutes with x^2 only at the second iterate, since
    # squaring cubes the scale only after two steps
    K = cyclotomic_field(3)
    sq = Poly.monomial(K, 2)
    rot = Poly.make(K, [K.zero(), K.zeta()])
    assert commutes_with_iterate(sq, rot, 3) == 2


def test_common_commuting_iterate():
    assert common_commuting_iterate(P(0, 1, 0, 1)) is not None
    n = common_commuting_iterate(Poly.monomial(QQ, 2), 4)
    assert n is not None


def test_align_iterates_basic():
    f = P(0, -1, 0, -1)                   # -(x^3 + x)
    g = P(0, 1, 0, 1)                     # x^3 + x
    # f^(o 2) = g^(o 2), take L = identity
    L = LinearPoly.identity(QQ)
    assert iterate(f, 2) == iterate(g, 2)
    ell, N = align_iterates(f, g, L, 2)
    assert N <= 2
    conj = compose(ell.to_poly(), compose(g, ell.inverse().to_poly()))
    assert iterate(f, N) == iterate(conj, N)


def test_align_iterates_rejects_cyclic():
    from rittkit.errors import HypothesisViolationError
    with pytest.raises(HypothesisViolationError):
        align_iterates(Poly.monomial(QQ, 2), Poly.monomial(QQ, 2),
                       LinearPoly.identity(QQ), 2)


def test_m_infinity_stops_at_degree_cap():
    # (x^101 + x)^(o 2) has degree 101^2 > DEGREE_CAP; the scale walk
    # never builds it, and only +-x commute with any iterate
    grp = m_infinity(P(0, 1) + X ** 101, 3)
    assert {(e.a, e.b) for e in grp.elements} == {(1, 0), (-1, 0)}


def _hint_by_division(residual, cap):
    """The hint as it was first computed: x^m - 1 divided by the
    residual, for every m from 1."""
    if residual.degree < 1:
        return None
    K = residual.field
    for m in range(1, cap + 1):
        probe = Poly.monomial(K, m) - Poly.constant(K, 1)
        if poly_divmod(probe, residual)[1].is_zero():
            return m
    return None


def test_extension_hint_matches_division():
    # x^r*P(x^e) translated: the scale gcd u^k*(u^g - 1) of A with itself,
    # its in-field roots deflated, divides x^m - 1 first at the hint
    rng = rng_for("hint-walk")
    K5 = cyclotomic_field(5)
    for K in (QQ, K5):
        z = K.zeta() if K != QQ else K.one()
        for e in range(1, 13):
            for _ in range(3):
                r = rng.randint(0, 3)
                B = Poly.monomial(K, r) * compose(Poly.make(K, [
                    rng.choice([-1, 0, 1, 2, z]) for _ in range(
                        rng.randint(1, 3))] + [1]), Poly.monomial(K, e))
                if B.degree < 2:
                    B = B + Poly.monomial(K, 2 * e + r)
                A = conjugate(LinearPoly.make(K, 1, rng.choice([0, 1, z])), B)
                G = _scale_polynomial(A, A)[0]
                grp = gamma_group(A)
                if G.is_zero():
                    assert grp.kind == "Infinite"
                    continue
                residual = Poly(K, G.coeffs[G.multiplicity_at_zero():])
                for a in in_field_roots(residual):
                    residual = deflate(residual, a)
                assert grp.extension_hint == _hint_by_division(
                    residual, 2 * A.degree)


def test_gamma_of_a_long_binomial_ends_in_seconds():
    # the hint divided x^m - 1 by a residual of degree 2,998 for each
    # m <= 2,999: 24 s (81 s under cProfile); the walk takes 2 steps
    src = str(Path(rittkit.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "rittkit.cli", "gamma", "--f", "x^3000 + 2*x"],
        env=dict(os.environ, PYTHONPATH=src), timeout=10,
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.endswith("order: 1\nelements: \n  - x (companion x)\n"
                               "generator: x\nextension_hint: 2999\n")


def test_gamma_over_q_zeta7_at_degree_3000_ends_in_seconds():
    # each element and its companion cost two Horner evaluations; with
    # the composition A o ell and a solve for L per element it took 22 s
    src = str(Path(rittkit.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "rittkit.cli", "gamma", "--field", "Q(zeta 7)",
         "--f", "x^3000 + z*x"],
        env=dict(os.environ, PYTHONPATH=src), timeout=10,
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.endswith("order: 1\nelements: \n  - x (companion x)\n"
                               "generator: x\nextension_hint: 2999\n")


def test_gamma_of_an_uncentred_map_at_degree_1000_ends_in_seconds():
    # centring makes every coefficient nonzero; the scale gcd took one
    # dense poly_gcd per coefficient (9.5 s), its exponent gcd takes O(d)
    src = str(Path(rittkit.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "rittkit.cli", "gamma", "--f",
         "x^1000 + x^999 + 2*x"],
        env=dict(os.environ, PYTHONPATH=src), timeout=5,
        capture_output=True, text=True)
    assert out.returncode == 0
