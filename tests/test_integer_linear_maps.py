"""The integer routes of the linear substitutions over Q.

`Poly.evaluate` at a rational runs one homogenised integer Horner, and
`conjugate` one composition on integer vectors followed by a*(...) + b on
the numerators.  Each is compared here with the plain `Fraction` or field
computation it replaces, on inputs with large and negative numerators and
denominators, and guarded against falling back to `compose`.  The orbit
commands are bounded by `dml.ORBIT_WORK_CAP` before their loop starts.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_kernel_properties import KERNEL

import rittkit
from rittkit import (QQ, CycElem, LinearPoly, Poly, ResourceCapError,
                     compose, conjugate, cyclotomic_field, dml, gamma_group)
from rittkit.parser import parse_curve, parse_poly
from rittkit.poly import centred

FIELDS = [QQ] + [cyclotomic_field(m) for m in (3, 4, 5, 8)]

wide_q = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                   st.integers(1, 10 ** 20))
small_q = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def scalars(field, q):
    if field == QQ:
        return q
    return st.lists(q, min_size=field.degree,
                    max_size=field.degree).map(lambda v: CycElem(field, v))


@st.composite
def polys(draw, field):
    d = draw(st.integers(0, 6))
    coeffs = draw(st.lists(scalars(field, wide_q | small_q),
                           min_size=d + 1, max_size=d + 1))
    return Poly.make(field, coeffs)


@KERNEL
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_conjugate_is_the_double_composition(data, field):
    f = data.draw(polys(field))
    a = data.draw(scalars(field, wide_q).filter(bool))
    b = data.draw(scalars(field, wide_q))
    ell = LinearPoly.make(field, a, b)
    assert conjugate(ell, f) == compose(
        ell.to_poly(), compose(f, ell.inverse().to_poly()))


def fraction_horner(coeffs, v):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


@KERNEL
@given(f=polys(QQ), v=wide_q | small_q | st.integers(-10 ** 12, 10 ** 12))
def test_evaluate_is_the_fraction_horner(f, v):
    got = f.evaluate(v)
    assert type(got) is Fraction and got == fraction_horner(f.coeffs, v)


@pytest.mark.parametrize("coeffs", [[], [Fraction(-7, 3)], [5],
                                    [0, Fraction(1, 2)], [3, 0, -2, 1]])
@pytest.mark.parametrize("v", [0, Fraction(0), -1, Fraction(-9, 4),
                               Fraction(-10 ** 20, 3 ** 40)])
def test_evaluate_edge_cases(coeffs, v):
    f = Poly.make(QQ, coeffs)
    got = f.evaluate(v)
    assert type(got) is Fraction and got == fraction_horner(f.coeffs, v)


def test_conjugate_and_centred_compose_nothing_over_q(monkeypatch):
    from rittkit import poly

    def refuse(*args, **kwargs):
        raise AssertionError("compose called")
    monkeypatch.setattr(poly, "compose", refuse)
    f = parse_poly("3/7*x^5 - 2*x^4 + 1/3*x - 5", QQ)
    ell = LinearPoly.make(QQ, Fraction(-5, 11), Fraction(7, 2))
    g = conjugate(ell, f)
    assert conjugate(ell.inverse(), g) == f
    s, F = centred(f)
    assert s and not F.coeff(F.degree - 1)


def test_gamma_group_evaluates_nothing_above_degree_one(monkeypatch):
    degrees = []
    real = Poly.evaluate

    def counted(self, v):
        degrees.append(self.degree)
        return real(self, v)
    monkeypatch.setattr(Poly, "evaluate", counted)
    K = cyclotomic_field(105)
    group = gamma_group(parse_poly("x^211 + x", K))
    assert group.order() == 210
    assert max(degrees, default=0) <= 1


def test_orbit_work_cap_boundary(monkeypatch):
    sq = Poly.monomial(QQ, 2)
    line = parse_curve("y - x - 1")
    alpha = (Fraction(0), Fraction(1))
    # x^2 and x^2 evaluate 3 + 3 Horner terms per step, and the line adds 4
    monkeypatch.setattr(dml, "ORBIT_WORK_CAP", 60)
    assert len(dml.orbit(sq, sq, alpha, 9).points) == 10
    with pytest.raises(ResourceCapError, match=r"^N = 10: \(N \+ 1\)\*6 "
                       r"Horner terms exceeds cap 60$"):
        dml.orbit(sq, sq, alpha, 10)
    assert dml.return_set_exact(sq, sq, alpha, line, 5).indices == tuple(
        range(6))
    with pytest.raises(ResourceCapError, match=r"^N = 6: \(N \+ 1\)\*10 "):
        dml.return_set_exact(sq, sq, alpha, line, 6)


SRC = str(Path(rittkit.__file__).resolve().parent.parent)


@pytest.mark.parametrize("command", [[], ["--curve", "y - x"]])
def test_long_orbits_exit_3_quickly(command):
    # uncapped, the orbit of N = 300,000 ran 7.3 s and printed 5.6 MB
    argv = ["orbit" if not command else "return-set", "--f1", "x^2",
            "--f2", "x^2", "--alpha", "0,1", "--n", "300000", *command]
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "rittkit.cli", *argv],
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=20,
                         capture_output=True, text=True)
    assert time.perf_counter() - start < 5
    terms = 6 if not command else 10
    assert (out.returncode, out.stdout) == (
        3, f"command: {argv[0]}\nerror: resource-cap\n"
           f"message: N = 300000: (N + 1)*{terms} Horner terms exceeds cap "
           f"{dml.ORBIT_WORK_CAP}\n")
