"""A root of unity u^j inverts by its exponent, as u^(M - j) from
`roots_of_unity`, with no extended remainder sequence: the 1/c of the
graph test for x - z^k*y and the +-z^j leads that `BivarCurve.make`
scales away are such units."""

import pytest

from rittkit import (CycElem, Poly, curve_period, cyclotomic_field,
                     parse_curve)


def refuse(*args):
    raise AssertionError("a root of unity took the general inverse")


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_roots_of_unity_invert_by_exponent(monkeypatch, m):
    K = cyclotomic_field(m)
    z = K.zeta()
    units = [s * z ** j for j in range(m) for s in (1, -1)]
    expect = [u._sequence_inverse() for u in units]
    monkeypatch.setattr(CycElem, "_sequence_inverse", refuse)
    assert [u.inverse() for u in units] == expect
    assert all(u * v == 1 for u, v in zip(units, expect))


def period(m: int, k: int, n_max: int):
    """The least n <= n_max with z^((2^n - 1)*k) = 1 in Q(zeta m)."""
    return next((n for n in range(1, n_max + 1)
                 if (2 ** n - 1) * k % m == 0), None)


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_unit_graph_periods_take_no_general_inverse(monkeypatch, m):
    """(x^2, x^2) takes x = z^k*y to x = z^(2k)*y."""
    K = cyclotomic_field(m)
    sq = Poly.monomial(K, 2)
    monkeypatch.setattr(CycElem, "_sequence_inverse", refuse)
    for k in range(1, m):
        cert = curve_period(parse_curve(f"x - z^{k}*y", K), sq, sq, 6)
        assert (cert and cert.period) == period(m, k, 6)
