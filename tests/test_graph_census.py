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

import rittkit
from rittkit import (QQ, cyclotomic_field, ms_diagonal_curves, parse_poly,
                     periodic_graph_search)

CASES = [("x^3 + x", 1, 9), ("x^2 + 1", 1, 4), ("x^5 + x^2", 3, 5),
         ("x^3 + 2*x", 4, 3)]


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


def test_graph_searches_end_quickly():
    # about 0.6 s with the graph route, 7 s through bivariate pushes
    # (Python 3.11.7, 2-vCPU x86_64 VM)
    out = subprocess.run(
        [sys.executable, "-c", GUARD], timeout=60, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(
            Path(rittkit.__file__).resolve().parent.parent)))
    assert out.returncode == 0 and out.stdout == "14 9 True\n"
