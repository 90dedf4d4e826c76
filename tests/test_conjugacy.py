from fractions import Fraction

import pytest
from conftest import rng_for

from rittkit import (QQ, LinearPoly, Poly, chebyshev, classify, compose,
                     conjugate, cyclotomic_field, equivalence_witness, iterate,
                     power_normal_form)

X = Poly.x(QQ)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def random_linear(rng, field=QQ):
    while True:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if a:
            break
    b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LinearPoly.make(field, a, b)


def test_powers_are_cyclic():
    for delta in range(2, 9):
        rep = classify(Poly.monomial(QQ, delta))
        assert rep.is_cyclic
        assert not rep.disintegrated


def test_chebyshev_is_dihedral():
    for delta in range(2, 9):
        for sign in (1, -1):
            f = chebyshev(delta).scale(sign) if sign < 0 else chebyshev(delta)
            rep = classify(f)
            assert not rep.disintegrated
            if delta >= 3:
                assert rep.is_dihedral


def test_disintegrated_examples():
    for f in (P(1, 0, 1), P(0, 1, 0, 1), P(7, 0, 1, 1)):
        rep = classify(f)
        assert rep.disintegrated
        assert rep.conj_to_power is None
        assert rep.conj_to_pm_chebyshev is None


def test_classification_conjugation_invariant():
    rng = rng_for("conj-invariance")
    samples = [Poly.monomial(QQ, 3), chebyshev(4), P(1, 0, 1)]
    for f in samples:
        base = classify(f)
        for _ in range(20):
            ell = random_linear(rng)
            rep = classify(conjugate(ell, f))
            assert rep.is_cyclic == base.is_cyclic
            assert rep.is_dihedral == base.is_dihedral
            assert rep.disintegrated == base.disintegrated


def test_cyclic_witness_verifies():
    ell = LinearPoly.make(QQ, Fraction(1, 2), 3)
    f = conjugate(ell, Poly.monomial(QQ, 4))
    rep = classify(f)
    assert rep.is_cyclic
    w = rep.conj_to_power
    assert conjugate(w, f) == Poly.monomial(QQ, 4)


def test_chebyshev_witness_verifies():
    ell = LinearPoly.make(QQ, 2, -1)
    f = conjugate(ell, chebyshev(3))
    rep = classify(f)
    assert rep.is_dihedral
    sign, w = rep.conj_to_pm_chebyshev
    target = chebyshev(3).scale(sign) if sign < 0 else chebyshev(3)
    assert conjugate(w, f) == target


def test_closure_under_iteration():
    # x^3 + x is neither a conjugated power nor +-Chebyshev, and no
    # iterate becomes one, yet the closure bookkeeping keeps it out of
    # the disintegrated class only when a witness shape exists
    f = P(0, 1, 0, 1)
    rep = classify(f)
    it = iterate(f, 4)
    rep4 = classify(it)
    assert rep4.conj_to_power is None
    assert rep4.conj_to_pm_chebyshev is None


def test_iterate_invariance_random():
    rng = rng_for("iterate-invariance")
    for f in (P(1, 0, 1), Poly.monomial(QQ, 2), chebyshev(2)):
        base = classify(f)
        f2 = iterate(f, 2)
        rep = classify(f2)
        assert rep.disintegrated == base.disintegrated


def test_equivalence_witness_found():
    rng = rng_for("equivalence")
    for _ in range(50):
        f = P(*[Fraction(rng.randint(-3, 3)) for _ in range(3)], 1)
        L1 = random_linear(rng)
        L2 = random_linear(rng)
        g = compose(L2.to_poly(), compose(f, L1.to_poly()))
        got = equivalence_witness(f, g)
        assert got is not None
        M1, M2 = got
        assert compose(M2.to_poly(), compose(f, M1.to_poly())) == g


def test_equivalence_witness_absent():
    # x^2 and x^2 + 1 are linearly equivalent; x^3 and x^3 + x are not
    assert equivalence_witness(P(0, 0, 0, 1), P(0, 1, 0, 1)) is None
    got = equivalence_witness(P(0, 0, 1), P(1, 0, 1))
    assert got is not None


def test_equivalence_witness_degree_one_over_q_zeta5():
    K = cyclotomic_field(5)
    z = K.zeta()
    f = Poly.make(K, [z + 2, 3 * z ** 2])
    g = Poly.make(K, [-z ** 3, z + Fraction(1, 2)])
    L1, L2 = equivalence_witness(f, g)
    assert L1.is_identity()
    assert compose(L2.to_poly(), f) == g
    assert L2 == LinearPoly.make(K, (z + Fraction(1, 2)) / (3 * z ** 2),
                                 -z ** 3 - (z + Fraction(1, 2)) * (z + 2)
                                 / (3 * z ** 2))


def test_power_normal_form_examples():
    nf = power_normal_form(P(0, 1, 0, 1))      # x^3 + x = x * (x^2 + 1)
    assert nf is not None
    assert nf.s == 1 and nf.n == 2
    assert nf.P == P(1, 1)
    assert nf.verify(P(0, 1, 0, 1))
    # order-2 symmetry group after recentering
    nf2 = power_normal_form(P(7, 0, 1, 1))
    assert nf2 is not None and nf2.n == 2
    assert nf2.verify(P(7, 0, 1, 1))
    # trivial symmetry group gives n = 1
    nf3 = power_normal_form(P(1, 2, 0, 0, 1))
    assert nf3 is not None and nf3.n == 1
    assert nf3.verify(P(1, 2, 0, 0, 1))
    # infinite symmetry group has no finite normal form
    assert power_normal_form(Poly.monomial(QQ, 5)) is None
    assert power_normal_form(P(1, 0, 1)) is None


def test_classify_cyclotomic():
    K = cyclotomic_field(4)
    f = Poly.make(K, [K.zero(), K.zero(), K.zeta()])   # i * x^2
    rep = classify(f)
    assert rep.is_cyclic
