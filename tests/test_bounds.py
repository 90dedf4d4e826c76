import math

import pytest

from rittkit import ConstantExpr, bound_c, bound_c1, compare


def test_c1_small_exact():
    assert str(bound_c1(2, 2).normalized()) == "32"
    assert str(bound_c1(3, 2).normalized()) == "162"


def test_c_2_2_exact():
    v = bound_c(2, 2).normalized()
    assert v.is_exact()
    assert str(v) == "2147483648"       # 2^31


def test_c1_2_3_power_of_two():
    n = bound_c1(2, 3).normalized()
    assert n.is_exact()
    assert str(n) == str(2 ** 134)


def test_c_2_3_stays_symbolic():
    # 2^(2^134) is far past the exact-expansion threshold
    n = bound_c(2, 3).normalized()
    assert not n.is_exact()
    assert n.kind == "half"


def test_closed_form_degree_2_to_4():
    # c1(d, 2) = 2 d^2 (d + 2)^... checked against the recurrence by
    # direct integer comparison for the small range
    expected = {2: 32, 3: 162, 4: 512}
    for d, val in expected.items():
        got = bound_c1(d, 2).normalized()
        assert got.is_exact()
        assert str(got) == str(val)


def test_compare_certified():
    a = ConstantExpr.integer(5)
    b = ConstantExpr.integer(7)
    assert compare(a, b) == -1
    assert compare(b, a) == 1
    assert compare(a, a) == 0
    big = ConstantExpr.power(ConstantExpr.integer(2),
                             ConstantExpr.power(ConstantExpr.integer(2),
                                                ConstantExpr.integer(134)))
    small = ConstantExpr.power(ConstantExpr.integer(2),
                               ConstantExpr.integer(1000))
    assert compare(small, big) == -1


def test_compare_refuses_close_giants():
    # two towers too close to separate without expansion stay undecided
    t = ConstantExpr.power(ConstantExpr.integer(2),
                           ConstantExpr.power(ConstantExpr.integer(2),
                                              ConstantExpr.integer(200)))
    t2 = ConstantExpr.add(t, ConstantExpr.integer(1))
    assert compare(t, t2) in (-1, None)


def test_half_parity_gate():
    even = ConstantExpr.integer(10)
    assert str(ConstantExpr.half(even).normalized()) == "5"
    odd = ConstantExpr.integer(7)
    h = ConstantExpr.half(odd)
    # halving an odd quantity stays symbolic rather than rounding
    assert h.normalized().kind == "half"


def test_monotone_in_n():
    # the recursion grows monotonically in the iterate count
    for d in (2, 3):
        a = bound_c1(d, 2)
        b = bound_c1(d, 3)
        assert compare(a, b) == -1


def test_trace_structure():
    trace = []
    bound_c(2, 2, trace=trace)
    labels = [t[0] for t in trace]
    assert "c(2,2)" in labels
    assert "c1(2,2)" in labels


def test_invalid_arguments():
    with pytest.raises(Exception):
        bound_c1(1, 2)
    with pytest.raises(Exception):
        bound_c(2, 0)


def test_compare_never_picks_a_side_a_clamp_hides():
    # 2^(2^2000000) > 3^(2^1500000), but both exponents pass the 2^1000
    # clamp of the log2 bounds; the answer must not be -1
    two, three = ConstantExpr.integer(2), ConstantExpr.integer(3)
    a = ConstantExpr.power(
        two, ConstantExpr.power(two, ConstantExpr.integer(2000000)))
    b = ConstantExpr.power(
        three, ConstantExpr.power(two, ConstantExpr.integer(1500000)))
    assert compare(a, b) in (1, None)
    assert compare(b, a) in (-1, None)


@pytest.mark.parametrize("d, n", [(2, 5), (5, 4), (5, 5)])
def test_bound_c_keeps_max_it_cannot_decide(d, n):
    # c(d,n) = max(c(d,n-1)^(n-1), d^c1(d,n) / 2): the right branch is far
    # larger, so the left one (a power node) would be a wrong answer
    v = bound_c(d, n)
    assert v.kind in ("max", "half")
    lo, hi = v.log2_bounds()
    assert lo <= hi


def test_log2_bounds_of_huge_exact_exponent():
    e = ConstantExpr.integer(2 ** 5000 + 1)
    p = ConstantExpr(kind="pow", children=(ConstantExpr.integer(5), e))
    lo, hi = p.log2_bounds()
    assert lo == 2.0 ** 1000 * math.log2(5) and hi == float("inf")
    assert e.log2_bounds() == (5000.0, 5001.0)
