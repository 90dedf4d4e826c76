"""Census oracle: two searches for periodic graphs of (f, f) must agree.

`ms_diagonal_curves` builds candidates from linear symmetries and iterates
of the lowest-degree commuter; `periodic_graph_search` solves
g^N o h = h o f^N for each N.  Different routes, so on the same maps, with
N <= 2, they must find the same set of (curve, period).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rittkit
from rittkit import (QQ, CycElem, LinearPoly, Poly, classify, compose,
                     conjugate, cyclotomic_field, ms_diagonal_curves,
                     parse_poly, periodic_graph_search)

CASES = [("x^3 + x", 1, 9), ("x^2 + 1", 1, 4), ("x^5 + x^2", 3, 5),
         ("x^3 + 2*x", 4, 3), ("(x^2 + 1)^2 + 1", 1, 4)]


def census(curves):
    return {(str(c.curve), c.certificate.period) for c in curves}


@pytest.mark.parametrize("f,m,cap", CASES)
def test_diagonal_enumeration_matches_graph_search(f, m, cap):
    f = parse_poly(f, QQ if m == 1 else cyclotomic_field(m))
    diagonal = census(ms_diagonal_curves(f, cap, iter_bound=2))
    searched = census(periodic_graph_search(f, f, cap, 2))
    assert diagonal == searched
    assert diagonal and all(period <= 2 for _, period in diagonal)


GUARD = """
import time
from rittkit import (QQ, cyclotomic_field, ms_diagonal_curves, parse_poly,
                     periodic_graph_search)
t = time.perf_counter()
a = ms_diagonal_curves(parse_poly("x^3 + x", QQ), 27)
f = parse_poly("x^5 + x^2", cyclotomic_field(3))
b = periodic_graph_search(f, f, 5, 2)
print(len(a), len(b), time.perf_counter() - t < 3)
"""


def run_guard(script):
    """Run script in a fresh interpreter on this checkout's rittkit."""
    return subprocess.run(
        [sys.executable, "-c", script], timeout=60, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(
            Path(rittkit.__file__).resolve().parent.parent)))


def test_graph_searches_end_quickly():
    # about 0.6 s with the graph route, 7 s through bivariate pushes
    # (Python 3.11.7, 2-vCPU x86_64 VM)
    out = run_guard(GUARD)
    assert out.returncode == 0 and out.stdout == "14 9 True\n"


DIAGONAL_GUARD = """
import time
from rittkit import cyclotomic_field, ms_diagonal_curves, parse_poly
t = time.perf_counter()
f = parse_poly("x^5 + x^2", cyclotomic_field(3))
print(len(ms_diagonal_curves(f, 5)), time.perf_counter() - t < 3)
"""


def test_diagonal_curves_at_the_default_bound_end_quickly():
    # about 0.1 s when M_inf and f-tilde take degree-d work, 90 s when
    # they built iterates (Python 3.11.7, 2-vCPU x86_64 VM)
    out = run_guard(DIAGONAL_GUARD)
    assert out.returncode == 0 and out.stdout == "9 True\n"


FIELDS = [QQ, cyclotomic_field(3), cyclotomic_field(4)]
small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def scalars(field):
    if field == QQ:
        return small
    return st.lists(small, min_size=field.degree,
                    max_size=field.degree).map(lambda v: CycElem(field, v))


@st.composite
def maps(draw):
    """x^r*P(x^e) of degree <= 5 conjugated by a rational translation;
    e > 1 gives maps with linear symmetries."""
    field = draw(st.sampled_from(FIELDS))
    e = draw(st.sampled_from([1, 2] if field == QQ else [1, 2, field.order]))
    r = draw(st.integers(0, 1 if e > 1 else 0))
    n = draw(st.integers(max(1, -(-(2 - r) // e)), (5 - r) // e))
    P = Poly.make(field, draw(st.lists(scalars(field), min_size=n,
                                       max_size=n)) + [field.one()])
    B = Poly.monomial(field, r) * compose(P, Poly.monomial(field, e))
    return conjugate(LinearPoly.make(field, 1, draw(small)), B)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(f=maps())
def test_random_disintegrated_maps_agree(f):
    # the brute-force solve at deg_cap 5 takes seconds over Q(zeta m)
    assume(classify(f).disintegrated)
    cap = min(f.degree, 4)
    diagonal = census(ms_diagonal_curves(f, cap, 2))
    assert diagonal == census(periodic_graph_search(f, f, cap, 2))
