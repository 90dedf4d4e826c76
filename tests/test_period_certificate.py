"""A forged period certificate fails `verify`, and the two searches that
end without an answer say so: `curve_period` when N_max runs out, and
`common_semiconjugate` when the next iterate passes the compose cap."""

import io
from contextlib import redirect_stdout

import pytest

from rittkit import (PeriodCertificate, ResourceCapError,
                     common_semiconjugate, compose, curve_image, curve_period,
                     parse_curve, parse_field, parse_poly)
from rittkit.cli import run_command

Z7 = parse_field("Q(zeta 7)")
SQ = parse_poly("x^2", Z7)
C = parse_curve("x - z*y", Z7)


@pytest.fixture(scope="module")
def cert():
    c = curve_period(C, SQ, SQ, 5)
    assert c.period == 3 and c.verify(SQ, SQ)
    return c


def test_chain_cut_down_to_period_2_fails(cert):
    chain = cert.image_chain
    assert not PeriodCertificate(C, 2, chain[:3]).verify(SQ, SQ)
    # closing the cut chain on the curve breaks the last image instead
    assert not PeriodCertificate(C, 2, (*chain[:2], C)).verify(SQ, SQ)


def test_chain_with_its_middle_curve_replaced_fails(cert):
    chain = list(cert.image_chain)
    chain[2] = parse_curve("x - z^3*y", Z7)
    assert not PeriodCertificate(C, 3, tuple(chain)).verify(SQ, SQ)


def test_malformed_or_non_minimal_chains_fail(cert):
    chain = cert.image_chain
    other = chain[1]
    assert not PeriodCertificate(C, 0, (C,)).verify(SQ, SQ)
    assert not PeriodCertificate(C, 3, chain[:3]).verify(SQ, SQ)
    assert not PeriodCertificate(other, 3, chain).verify(SQ, SQ)
    # two laps are a true chain of images, but not the first return
    twice = chain + chain[1:]
    assert all(curve_image(a, SQ, SQ) == b for a, b in zip(twice, twice[1:]))
    assert not PeriodCertificate(C, 6, twice).verify(SQ, SQ)


def test_curve_period_is_none_when_n_max_runs_out():
    assert curve_period(C, SQ, SQ, 2) is None
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(["curve-period", "--field", "Q(zeta 7)",
                            "--curve", "x - z*y", "--f", "x^2", "--g", "x^2",
                            "--nmax", "2"])
    assert code == 0
    assert buf.getvalue() == ("command: curve-period\n"
                              "period: not periodic within 2\n")


def test_common_semiconjugate_stops_at_the_compose_cap():
    # no linear semiconjugate at N = 1, and f o f has degree 10,201, past
    # the compose cap: the search ends with None instead of raising
    f, g = parse_poly("x^101 + x"), parse_poly("x^101 + 2*x")
    with pytest.raises(ResourceCapError):
        compose(f, f)
    assert common_semiconjugate(f, g, 1, 1) is None
    assert common_semiconjugate(f, g, 5, 1) is None
