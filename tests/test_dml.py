from fractions import Fraction

import pytest
from conftest import rng_for

from rittkit import (QQ, BadReductionError, Poly, Progression, dml, orbit,
                     parse_curve, preperiodic_check, progression_decompose,
                     return_set_exact, return_set_modp, return_sets_modp)
from rittkit.errors import ResourceCapError

X = Poly.x(QQ)


def P(*coeffs):
    return Poly.make(QQ, list(coeffs))


def test_orbit_basic():
    sq = Poly.monomial(QQ, 2)
    orb = orbit(sq, P(1, 0, 1), (Fraction(2), Fraction(0)), 4)
    assert [pt.point[0] for pt in orb.points] == [2, 4, 16, 256, 65536]
    assert [pt.point[1] for pt in orb.points] == [0, 1, 2, 5, 26]
    assert orb.truncated_at is None


def test_orbit_height_cap():
    sq = Poly.monomial(QQ, 2)
    orb = orbit(sq, sq, (Fraction(2), Fraction(4)), 20, height_cap=4096)
    assert orb.truncated_at is not None
    assert orb.truncated_at <= 13


def test_return_set_diagonal():
    sq = Poly.monomial(QQ, 2)
    diag = parse_curve("y - x")
    rs = return_set_exact(sq, sq, (Fraction(3), Fraction(3)), diag, 8)
    assert rs.indices == tuple(range(9))
    rs2 = return_set_exact(sq, sq, (Fraction(2), Fraction(3)), diag, 8)
    assert rs2.indices == ()


def test_return_set_graph_curve():
    # y starts one step behind x on the same orbit of x^2
    sq = Poly.monomial(QQ, 2)
    C = parse_curve("y - x^2")
    rs = return_set_exact(sq, sq, (Fraction(2), Fraction(4)), C, 6,
                          height_cap=20000)
    assert rs.indices == tuple(range(7))


def test_return_set_modp_false_positives():
    sq = Poly.monomial(QQ, 2)
    diag = parse_curve("y - x")
    # (4, 9) = (4, 4) mod 5, a false positive at n = 1
    rs5 = return_set_modp(sq, sq, (Fraction(2), Fraction(3)), diag, 5, 3)
    assert 1 in rs5
    exact = return_set_exact(sq, sq, (Fraction(2), Fraction(3)), diag, 3)
    assert exact.indices == ()
    assert set(exact.indices) <= set(rs5)


def test_return_set_modp_contains_exact_random():
    rng = rng_for("modp-containment")
    diag = parse_curve("y - x")
    primes = [p for p in range(3, 50)
              if all(p % q for q in range(2, p))]
    for _ in range(20):
        F1 = P(rng.randint(-3, 3), rng.randint(1, 3), 1)
        F2 = P(rng.randint(-3, 3), rng.randint(1, 3), 1)
        a = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        exact = return_set_exact(F1, F2, a, diag, 6, height_cap=20000)
        for p in primes[:6]:
            try:
                modp = return_set_modp(F1, F2, a, diag, p, 6)
            except BadReductionError:
                continue
            assert set(exact.indices) <= set(modp)


def test_return_set_modp_bad_reduction():
    sq = Poly.monomial(QQ, 2)
    diag = parse_curve("y - x")
    with pytest.raises(BadReductionError):
        return_set_modp(sq, sq, (Fraction(1, 5), Fraction(1)), diag, 5, 4)
    with pytest.raises(BadReductionError):
        return_set_modp(sq, sq, (Fraction(1), Fraction(1)), diag, 4, 4)
    with pytest.raises(BadReductionError):
        return_set_modp(P(0, 0, 5), sq, (Fraction(1), Fraction(1)),
                        diag, 5, 4)


def test_return_set_modp_work_cap_boundary(monkeypatch):
    sq = Poly.monomial(QQ, 2)
    diag = parse_curve("y - x")
    alpha = (Fraction(2), Fraction(3))
    with pytest.raises(ResourceCapError):
        return_set_modp(sq, sq, alpha, diag, 5, dml.MODP_WORK_CAP // 10)
    # 10 Horner terms per step: N = 9 is exactly at a cap of 100
    monkeypatch.setattr(dml, "MODP_WORK_CAP", 100)
    assert return_set_modp(sq, sq, alpha, diag, 5, 9) == tuple(range(1, 10))
    with pytest.raises(ResourceCapError):
        return_set_modp(sq, sq, alpha, diag, 5, 10)


def test_return_sets_modp_caps_the_whole_call(monkeypatch):
    sq = Poly.monomial(QQ, 2)
    diag = parse_curve("y - x")
    alpha = (Fraction(2), Fraction(3))
    # 10 Horner terms per step and prime: two primes at N = 4 are exactly
    # at a cap of 100, and a repeated prime counts once
    monkeypatch.setattr(dml, "MODP_WORK_CAP", 100)
    sets = return_sets_modp(sq, sq, alpha, diag, [7, 5, 7], 4)
    assert sets == {5: (1, 2, 3, 4), 7: ()}
    assert list(sets) == [5, 7]
    with pytest.raises(ResourceCapError, match=r"^N = 5: 2 primes\*\(N \+ 1\)"
                       r"\*10 Horner terms exceeds cap 100$"):
        return_sets_modp(sq, sq, alpha, diag, [5, 7], 5)
    # one prime: the message of return_set_modp
    with pytest.raises(ResourceCapError, match=r"^N = 10: \(N \+ 1\)\*10 "):
        return_sets_modp(sq, sq, alpha, diag, [5], 10)


def test_progression_members():
    pr = Progression(2, 3)
    assert pr.members(12) == {2, 5, 8, 11}
    single = Progression(4, 0)
    assert single.members(12) == {4}


def test_progression_decompose_roundtrip():
    S = {0, 2, 4, 6, 8, 10}
    out = progression_decompose(S, 10)
    assert out is not None
    covered = set()
    for pr in out:
        covered |= pr.members(10)
    assert covered == S


def test_progression_decompose_with_tail():
    S = {1} | {3, 6, 9}
    out = progression_decompose(S, 10)
    assert out is not None
    covered = set()
    for pr in out:
        covered |= pr.members(10)
    assert covered == S


def test_progression_decompose_primes_not_periodic():
    # the characteristic sequence of the primes is not eventually
    # periodic at any period (or preperiod) up to horizon / 3
    primes = {n for n in range(2, 51)
              if all(n % q for q in range(2, n))}
    assert progression_decompose(primes, 50) is None


def test_progression_decompose_odds():
    S = set(range(1, 100, 2))
    out = progression_decompose(S, 100)
    assert out == [Progression(1, 2)]


def test_progression_decompose_singleton():
    out = progression_decompose({2}, 100)
    assert out == [Progression(2, 0)]


def test_preperiodic_detected():
    f = P(-1, 0, 1)                       # 0 -> -1 -> 0 cycle
    res = preperiodic_check(f, Fraction(0), 10)
    assert res.kind == "Preperiodic"
    assert res.tail == 0 and res.period == 2


def test_preperiodic_with_tail():
    f = P(-1, 0, 1)
    res = preperiodic_check(f, Fraction(1), 10)
    # 1 -> 0 -> -1 -> 0 ...
    assert res.kind == "Preperiodic"
    assert res.tail == 1 and res.period == 2


def test_escape_certificate():
    f = P(1, 0, 1)                        # 0 -> 1 -> 2 -> 5 -> 26 escapes
    res = preperiodic_check(f, Fraction(0), 10)
    assert res.kind == "Escape"
    assert res.certificate is not None
    assert res.certificate.verify(f, steps=5)


def test_preperiodic_unknown_on_tiny_budget():
    f = P(Fraction(1, 3), 0, 1)
    res = preperiodic_check(f, Fraction(1, 2), 1, height_cap=8)
    assert res.kind in ("Unknown", "Escape", "Preperiodic")
