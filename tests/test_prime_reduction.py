"""Reduction at degree-1 primes, and the mod-p return filter over Q(zeta m).

`field.reduce_mod` maps ints, Fractions and CycElems to F_p at one prime
P = (p, zeta - w) of Q(zeta m) above a p = 1 (mod m), or at P = (p) over
Q.  `dml.return_set_modp` intersects the mod-P return sets over the
phi(m) such P, a superset of the exact return set.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import (QQ, BadReductionError, CycElem, FieldMismatchError,
                     Poly, cyclotomic_field, dml, parse_curve, parse_poly,
                     return_set_exact, return_set_modp, return_sets_modp)
from rittkit.cli import run_command
from rittkit.errors import ResourceCapError
from rittkit.field import is_prime, reduce_mod, splitting_tables

PROPS = settings(derandomize=True, max_examples=40, deadline=None,
                 database=None)
PRIMES = [p for p in range(3, 200) if is_prime(p)]


def split_primes(m: int, below: int) -> list:
    return [p for p in PRIMES if p < below and p % m == 1]


def cyc_elements(K):
    """Small elements of K, with denominators up to 6."""
    coords = st.lists(st.integers(-20, 20), min_size=K.degree,
                      max_size=K.degree)
    return st.builds(lambda v, d: CycElem(K, [Fraction(c, d) for c in v]),
                     coords, st.integers(1, 6))


@PROPS
@given(st.data(), st.sampled_from([3, 4, 5, 8]))
def test_reduction_is_a_ring_map_at_every_split_prime(data, m):
    K = cyclotomic_field(m)
    p = data.draw(st.sampled_from(split_primes(m, 200)))
    a, b = data.draw(cyc_elements(K)), data.draw(cyc_elements(K))
    for powers in splitting_tables(m, p)[0]:
        images = reduce_mod([a, b, a + b, a * b], p, powers)
        if (a.den * b.den) % p == 0:
            assert images is None
            continue
        ra, rb, rs, rp = images
        assert rs == (ra + rb) % p
        assert rp == ra * rb % p


@PROPS
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
       st.sampled_from(PRIMES))
def test_reduction_over_q_inverts_the_denominator(n, d, p):
    got = reduce_mod([Fraction(n, d), 7], p)
    if d % p:
        assert got == [n * pow(d, -1, p) % p, 7 % p]
    elif Fraction(n, d).denominator % p == 0:
        assert got is None


def test_reduction_at_a_denominator_divisible_by_p_is_none():
    assert reduce_mod([Fraction(1, 2), Fraction(3, 35)], 7) is None
    assert reduce_mod([Fraction(1, 2), Fraction(3, 35)], 11) == [6, 7]
    K = cyclotomic_field(3)
    z = K.zeta()
    for powers in splitting_tables(3, 7)[0]:
        assert reduce_mod([z, (z + 1) / 7], 7, powers) is None
        assert reduce_mod([z, (z + 1) / 2], 7, powers) is not None


# -- the return filter over Q(zeta m) --------------------------------------

@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.data(), st.sampled_from([3, 4, 5]))
def test_exact_returns_lie_in_the_modp_filter_over_cyclotomic_fields(data, m):
    K = cyclotomic_field(m)
    small = st.builds(lambda v, d: CycElem(K, [Fraction(c, d) for c in v]),
                      st.lists(st.integers(-2, 2), min_size=K.degree,
                               max_size=K.degree),
                      st.sampled_from([1, 1, 1, 2, 3]))
    F1 = Poly.make(K, [data.draw(small), 0, 1])
    F2 = data.draw(st.sampled_from(
        [F1, Poly.make(K, [data.draw(small), 0, 1])]))
    a = data.draw(small)
    # on the diagonal, on the graph of F1, or anywhere
    b = data.draw(st.sampled_from([a, F1.evaluate(a), data.draw(small)]))
    C = parse_curve(data.draw(st.sampled_from(
        ["y - x", f"y - ({F1})", "y - z*x"])), K)
    N = data.draw(st.integers(2, 6))
    exact = return_set_exact(F1, F2, (a, b), C, N, height_cap=20000)
    checked = 0
    for p in split_primes(m, 100):
        try:
            modp = return_set_modp(F1, F2, (a, b), C, p, N)
        except BadReductionError:
            continue
        checked += 1
        assert set(exact.indices) <= set(modp)
    assert checked


def test_modp_filter_is_the_intersection_over_the_primes_above_p(
        monkeypatch):
    K = cyclotomic_field(5)
    F1, F2 = parse_poly("x^2 + z", K), parse_poly("x^2 - 1", K)
    diag, alpha = parse_curve("y - x", K), (K.zeta(), K.zeta())
    real = dml.splitting_tables
    rows = real(5, 11)[0]

    def filter_at(maps):
        monkeypatch.setattr(dml, "splitting_tables", lambda m, p: (maps, []))
        return return_set_modp(F1, F2, alpha, diag, 11, 20)
    # the four primes above 11 disagree, and the filter keeps what all
    # four keep, whichever root is listed first
    singles = [set(filter_at([row])) for row in rows]
    assert len({frozenset(s) for s in singles}) > 1
    assert filter_at(rows) == filter_at(rows[::-1]) == (0,)
    assert set.intersection(*singles) == {0}
    assert return_set_exact(F1, F2, alpha, diag, 20).indices == (0,)


def test_modp_filter_over_cyclotomic_refuses_primes_that_do_not_split():
    K = cyclotomic_field(3)
    sq, diag = Poly.monomial(K, 2), parse_curve("y - x", K)
    with pytest.raises(BadReductionError, match=r"^5 is not 1 mod 3"):
        return_set_modp(sq, sq, (K.zeta(), K.one()), diag, 5, 4)
    with pytest.raises(BadReductionError, match="not an odd prime"):
        return_set_modp(sq, sq, (K.zeta(), K.one()), diag, 2, 4)
    with pytest.raises(BadReductionError, match="denominator of alpha"):
        return_set_modp(sq, sq, (K.zeta() / 7, K.one()), diag, 7, 4)


def test_modp_filter_over_cyclotomic_counts_phi_maps_per_prime(monkeypatch):
    K = cyclotomic_field(5)
    sq, diag = Poly.monomial(K, 2), parse_curve("y - x", K)
    alpha = (K.zeta(), K.zeta())
    # 10 Horner terms per step at each of 4 maps, whose reduction counts
    # 3 more steps: N = 6 is exactly at a cap of 4*(6 + 4)*10 = 400
    monkeypatch.setattr(dml, "MODP_WORK_CAP", 400)
    assert return_set_modp(sq, sq, alpha, diag, 11, 6) == tuple(range(7))
    with pytest.raises(ResourceCapError, match=r"^N = 7: \(N \+ 4\)\*40 "
                       r"Horner terms exceeds cap 400$"):
        return_set_modp(sq, sq, alpha, diag, 11, 7)
    monkeypatch.setattr(dml, "MODP_WORK_CAP", 800)
    assert return_sets_modp(sq, sq, alpha, diag, [31, 11], 6) == {
        11: tuple(range(7)), 31: tuple(range(7))}
    with pytest.raises(ResourceCapError, match=r"^N = 7: 2 primes\*"):
        return_sets_modp(sq, sq, alpha, diag, [31, 11], 7)


def test_modp_filter_needs_one_field():
    K = cyclotomic_field(3)
    sq_q, sq_k = Poly.monomial(QQ, 2), Poly.monomial(K, 2)
    with pytest.raises(FieldMismatchError):
        return_set_modp(sq_k, sq_q, (1, 1), parse_curve("y - x", K), 7, 4)
    with pytest.raises(FieldMismatchError):
        return_set_modp(sq_k, sq_k, (1, 1), parse_curve("y - x"), 7, 4)
    # alpha is coerced into the field of the maps, as in orbit
    with pytest.raises(FieldMismatchError):
        return_set_modp(sq_q, sq_q, (K.zeta(), 1), parse_curve("y - x"), 7, 4)
    assert return_set_modp(sq_q, sq_q, (K.one() * 2, 2), parse_curve("y - x"),
                           7, 3) == (0, 1, 2, 3)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(argv)
    return code, buf.getvalue()


def test_return_set_modp_command_over_a_cyclotomic_field():
    # (z, z^2) lies on the graph y = x^2 of the map x^2, and so does its
    # whole orbit
    args = ["return-set-modp", "--field", "Q(zeta 3)", "--f1", "x^2",
            "--f2", "x^2", "--alpha", "z,z^2", "--curve", "y - x^2",
            "--n", "6"]
    assert run(args + ["--primes", "7,13"]) == (
        0, "command: return-set-modp\nmod_7: 0,1,2,3,4,5,6\n"
           "mod_13: 0,1,2,3,4,5,6\nintersection: 0,1,2,3,4,5,6\n")
    code, out = run(args + ["--primes", "5"])
    assert code == 2
    assert "error: input\nmessage: 5 is not 1 mod 3" in out
