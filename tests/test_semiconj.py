from fractions import Fraction
from itertools import product

import pytest
import sympy
from conftest import random_poly, rng_for

from rittkit import (QQ, FieldExtensionRequiredError, Poly, SemiconjWitness,
                     approx_classes, common_semiconjugate, compose,
                     inou_normal_form, iterate, semiconj_check, solve_eta,
                     solve_intertwiner, solve_p)

X = Poly.x(QQ)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def family(c, b, Ppoly):
    """f = x^c P(x)^b, p = x^b, eta = x^c P(x^b)."""
    field = Ppoly.field
    f = Poly.monomial(field, c) * Ppoly ** b
    p = Poly.monomial(field, b)
    eta = Poly.monomial(field, c) * compose(Ppoly, Poly.monomial(field, b))
    return f, p, eta


def test_family_identity_random():
    rng = rng_for("inou-family")
    for _ in range(50):
        c = rng.randint(1, 5)
        b = rng.randint(1, 4)
        Ppoly = random_poly(rng, rng.randint(0, 4))
        f, p, eta = family(c, b, Ppoly)
        assert compose(f, p) == compose(p, eta)
        assert semiconj_check(SemiconjWitness(f, p, eta))


def test_solve_eta_basic():
    f = P(0, 0, 0, 1) * P(1, 1) ** 3      # x^3 (x + 1)^3 = (x (x + 1))^3
    p = Poly.monomial(QQ, 3)
    eta = solve_eta(f, p)
    assert eta is not None
    assert compose(f, p) == compose(p, eta)
    w_eta = solve_eta(P(0, 1) * P(1, 1), Poly.x(QQ))
    assert w_eta == P(0, 1) * P(1, 1)


def test_solve_eta_family():
    rng = rng_for("solve-eta")
    for _ in range(30):
        c = rng.randint(1, 4)
        b = rng.randint(2, 4)
        Ppoly = random_poly(rng, rng.randint(1, 3))
        f, p, eta = family(c, b, Ppoly)
        got = solve_eta(f, p)
        assert got is not None
        # eta is unique only up to a unity twist absorbed by p
        assert compose(f, p) == compose(p, got)


def test_solve_eta_extension_required():
    f = P(0, 0, 2)                        # 2x^2
    p = Poly.monomial(QQ, 2)
    with pytest.raises(FieldExtensionRequiredError):
        solve_eta(f, p)


def test_solve_p_examples():
    odd = P(0, 1, 0, 1)                   # x^3 + x commutes with -x
    assert sorted(str(q) for q in solve_p(odd, odd, 1)) == ["-x", "x"]
    f = P(1, 0, 1)
    assert sorted(str(q) for q in solve_p(f, f, 2)) == ["x", "x^2 + 1"]
    sq = Poly.monomial(QQ, 2)
    got = solve_p(sq, sq, 3)
    assert sorted(str(q) for q in got) == ["x", "x^2", "x^3"]
    assert solve_p(P(1, 0, 1), P(2, 0, 1), 4) == []


def test_solve_intertwiner_roundtrip():
    from rittkit import LinearPoly, conjugate
    rng = rng_for("intertwiner-roundtrip")
    # linear intertwiners recovered from a conjugacy
    for _ in range(25):
        g = random_poly(rng, rng.randint(2, 4))
        while True:
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if a:
                break
        ell = LinearPoly.make(QQ, a, Fraction(rng.randint(-3, 3)))
        f = conjugate(ell, g)
        sols = solve_intertwiner(f, g, 1)
        assert ell.to_poly() in sols
        for q in sols:
            assert compose(f, q) == compose(q, g)
    # nonlinear intertwiners recovered from the power-shape family
    for _ in range(25):
        c = rng.randint(1, 3)
        b = rng.randint(2, 3)
        Ppoly = random_poly(rng, rng.randint(1, 2))
        f, p, eta = family(c, b, Ppoly)
        sols = solve_intertwiner(f, eta, b)
        assert p in sols
        for q in sols:
            assert compose(f, q) == compose(q, eta)


def test_solve_intertwiner_vs_sympy_bilinear():
    # brute force the linear system for small degrees with sympy
    rng = rng_for("intertwiner-oracle")
    x = sympy.Symbol("x")
    for _ in range(6):
        left = random_poly(rng, rng.randint(2, 3), num_max=2)
        right = random_poly(rng, rng.randint(2, 3), num_max=2)
        if left.degree != right.degree:
            continue
        try:
            got = {str(q) for q in solve_intertwiner(left, right, 2)}
        except FieldExtensionRequiredError:
            got = set()
        sl = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                 for i, c in enumerate(left.coeffs))
        sr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                 for i, c in enumerate(right.coeffs))
        expected = set()
        for deg in (1, 2):
            syms = sympy.symbols(f"a0:{deg + 1}")
            cand = sum(s * x ** i for i, s in enumerate(syms))
            eqs = sympy.Poly(sl.subs(x, cand) - cand.subs(x, sr),
                             x).all_coeffs()
            for sol in sympy.solve(eqs, syms, dict=True):
                vals = [sol.get(s, s) for s in syms]
                if any(v.free_symbols for v in vals):
                    continue
                if not vals[-1]:
                    continue
                pol = Poly.make(QQ, [Fraction(int(sympy.numer(v)),
                                              int(sympy.denom(v)))
                                     for v in vals])
                expected.add(str(pol))
        assert got == expected


def test_inou_normal_form_example():
    f = P(0, 0, 0, 1) * P(1, 1) ** 2      # x^3 (x + 1)^2
    p = Poly.monomial(QQ, 2)
    eta = P(0, 0, 0, 1, 0, 1)             # x^5 + x^3 = x^3 (x^2 + 1)
    w = SemiconjWitness(f, p, eta)
    assert semiconj_check(w)
    nf = inou_normal_form(w)
    assert nf.b == 2 and nf.c == 3
    assert nf.P == P(1, 1)
    assert nf.verify(w)


def test_inou_degenerate_b1():
    f = P(0, 1, 0, 1)                     # x^3 + x fixes the origin
    w = SemiconjWitness(f, Poly.x(QQ), f)
    nf = inou_normal_form(w)
    assert nf.b == 1
    assert nf.verify(w)


def test_inou_conjugation_invariance():
    from rittkit import LinearPoly
    f = P(0, 0, 0, 1) * P(1, 1) ** 2
    p = Poly.monomial(QQ, 2)
    eta = P(0, 0, 0, 1, 0, 1)
    ell = LinearPoly.make(QQ, 2, 1)
    f2 = compose(ell.to_poly(), compose(f, ell.inverse().to_poly()))
    p2 = compose(ell.to_poly(), p)
    w = SemiconjWitness(f2, p2, eta)
    assert semiconj_check(w)
    nf = inou_normal_form(w)
    assert nf.b == 2 and nf.c == 3
    assert nf.verify(w)


def test_common_semiconjugate_example():
    f = P(0, 0, 0, 1) * P(1, 1) ** 2      # x^3 (x + 1)^2
    g = P(0, 0, 0, 1, 0, 1)               # x^5 + x^3
    got = common_semiconjugate(f, g)
    assert got is not None
    assert got.N == 1
    assert got.verify(f, g)
    assert got.eta == g
    assert got.p == Poly.monomial(QQ, 2)
    assert got.q == Poly.x(QQ)


def test_common_semiconjugate_none():
    # two generic maps share no semiconjugate at small depth
    assert common_semiconjugate(P(1, 0, 1), P(2, 0, 1), N_max=2,
                                deg_cap=8) is None


def test_approx_classes():
    f1 = P(1, 0, 1)
    f2 = P(0, 0, 0, 1) * P(1, 1) ** 2
    f3 = P(0, 0, 0, 1, 0, 1)
    res = approx_classes([f2, f3])
    assert len(res.classes) == 1
    res2 = approx_classes([f1, P(2, 0, 1)], N_max=2, deg_cap=8)
    assert len(res2.classes) == 2


def test_disintegration_transport():
    # semiconjugacy preserves disintegration within the family
    from rittkit import classify
    rng = rng_for("disint-transport")
    for _ in range(10):
        c, b = 3, 2
        Ppoly = random_poly(rng, 1)
        if not Ppoly.constant_term():
            continue
        f, p, eta = family(c, b, Ppoly)
        if classify(f).disintegrated:
            assert classify(eta).disintegrated


def test_common_semiconjugate_power_shape_routes():
    # both direct routes fail; the fixed-point power shapes of each side
    # give eta = x^7 + x with p = x^2, q = x^3
    f = X * P(1, 0, 0, 1) ** 2            # x (x^3 + 1)^2
    g = X * P(1, 0, 1) ** 3               # x (x^2 + 1)^3
    eta = P(0, 1, 0, 0, 0, 0, 0, 1)
    got = common_semiconjugate(f, g, N_max=1, deg_cap=3)
    assert (got.N, got.eta, got.p, got.q) == (1, eta, P(0, 0, 1),
                                              P(0, 0, 0, 1))
    assert got.verify(f, g)
    swapped = common_semiconjugate(g, f, N_max=1, deg_cap=3)
    assert (swapped.N, swapped.eta, swapped.p, swapped.q) == (
        1, eta, P(0, 0, 0, 1), P(0, 0, 1))
    assert swapped.verify(g, f)


def test_approx_classes_unequal_degrees_are_separate():
    res = approx_classes([P(1, 0, 1), P(0, 0, 0, 1, 0, 1)])
    assert res.classes == ((0,), (1,))


def test_approx_classes_searches_each_pair_once(monkeypatch):
    # the first chaining step of a class reuses the union pass's witness
    import rittkit.semiconj as semiconj
    search = semiconj.common_semiconjugate
    calls = []

    def counted(*args, **kwargs):
        calls.append(search(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(semiconj, "common_semiconjugate", counted)
    f2 = P(0, 0, 0, 1) * P(1, 1) ** 2
    f3 = P(0, 0, 0, 1, 0, 1)
    res = approx_classes([f2, f3])
    assert len(calls) == 1
    wit = calls[0]
    assert res.classes == ((0, 1),)
    assert res.representatives[0] == (wit.eta, wit.N, {0: wit.p, 1: wit.q})
