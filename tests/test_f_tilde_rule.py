"""f-tilde at perfect-power degrees, and two branches pinned.

A commuter p of an iterate of a disintegrated f has p^(o a) = mu o f^(o kb),
mu linear (Ritt 1923), so with deg f = r^t, r not a perfect power, deg p
is a power of r, and by Ritt's first theorem (1922) an indecomposable f
has no commuter of degree below deg f.  So `f_tilde_candidate` returns an
indecomposable f with no search, and stops its search at degree r.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rittkit
import rittkit.msclass as msclass
from rittkit import QQ, compose, cyclotomic_field, f_tilde_candidate
from rittkit.bounds import ConstantExpr, compare
from rittkit.parser import parse_poly
from rittkit.roots import in_field_roots
from rittkit.semiconj import solve_intertwiner


def exhaustive_f_tilde(f, iter_bound):
    """The search over every f^(o k), k <= iter_bound, with no early stop."""
    best, F = f, f
    for k in range(iter_bound):
        for p in solve_intertwiner(F, F, f.degree - 1):
            if 2 <= p.degree < best.degree:
                best = p
        F = compose(f, F)
    return best


@pytest.mark.parametrize("f", ["x^4 + x", "x^4 + 2*x^3 + x", "x^9 + x",
                               "x^8 + x^3 + 1"])
def test_indecomposable_maps_need_no_search(monkeypatch, f):
    f = parse_poly(f, QQ)
    monkeypatch.setattr(msclass, "solve_intertwiner", None)
    assert f_tilde_candidate(f, 5) == f


@pytest.mark.parametrize("f", ["x^4 + x", "x^4 + 2*x^3 + x"])
def test_indecomposable_rule_matches_the_search(f):
    f = parse_poly(f, QQ)
    assert exhaustive_f_tilde(f, 2) == f


@pytest.mark.parametrize("g,m,copies", [("x^2 + 1", 1, 2), ("x^2 + 1", 1, 3),
                                        ("x^2 + x", 1, 2),
                                        ("x^2 + z", 3, 2)])
def test_search_stops_at_the_least_degree(monkeypatch, g, m, copies):
    g = parse_poly(g, QQ if m == 1 else cyclotomic_field(m))
    f = g
    for _ in range(copies - 1):
        f = compose(g, f)
    expected = exhaustive_f_tilde(f, 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_intertwiner(*args)
    monkeypatch.setattr(msclass, "solve_intertwiner", counted)
    assert f_tilde_candidate(f, f.degree) == expected
    assert expected.degree == 2 and len(calls) == 1


CLI = [(["--f", "x^8 + x", "--deg-cap", "3"],
        "curves: 1\n  - -y + x (g = x, period 1)\n"),
       (["--f", "x^9 + x", "--deg-cap", "9"],
        "curves: 6\n  - y + x (g = -x, period 1)\n"
        "  - -y + x (g = x, period 1)\n"
        "  - y + (x^9 + x) (g = -x^9 - x, period 1)\n"
        "  - y^9 + y + x (g = -x^9 - x, period 1)\n"
        "  - -y + (x^9 + x) (g = x^9 + x, period 1)\n"
        "  - -y^9 - y + x (g = x^9 + x, period 1)\n"),
       (["--f", "((x^2+1)^2+1)^2+1", "--deg-cap", "2"],
        "curves: 3\n  - -y + x (g = x, period 1)\n"
        "  - -y + (x^2 + 1) (g = x^2 + 1, period 1)\n"
        "  - y^2 + (-x + 1) (g = x^2 + 1, period 1)\n")]


@pytest.mark.parametrize("flags,body", CLI, ids=[f[1] for f, _ in CLI])
def test_ms_diagonal_at_perfect_power_degrees_ends_quickly(flags, body):
    # about 0.2 s each with interpreter start-up; building the iterates
    # took 0.8-14 s and exited 3 on the compose degree cap
    # (Python 3.11, 2-vCPU x86_64 VM)
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "rittkit.cli", "ms-diagonal", *flags],
        timeout=60, capture_output=True, text=True, env=dict(
            os.environ, PYTHONPATH=str(
                Path(rittkit.__file__).resolve().parent.parent)))
    assert time.perf_counter() - start < 5
    assert out.returncode == 0
    assert out.stdout == "command: ms-diagonal\n" + body


def test_quadratic_formula_roots_over_q_zeta_5():
    K = cyclotomic_field(5)
    F = parse_poly("(x - (1 + z))*(x - (1 + 3*z))", K)
    assert in_field_roots(F) == [parse_poly(r, K).constant_term()
                                 for r in ("1 + z", "1 + 3*z")]


def test_same_base_powers_compare_by_exponent():
    # both log2 bounds end in inf, so only the same-base branch decides
    e = ConstantExpr.integer(2 ** 2000)
    two = ConstantExpr.integer(2)
    big = ConstantExpr.power(two, ConstantExpr.add(e, ConstantExpr.integer(1)))
    small = ConstantExpr.power(two, e)
    assert big.log2_bounds()[1] == small.log2_bounds()[1] == float("inf")
    assert compare(big, small) == 1
    assert compare(small, big) == -1
