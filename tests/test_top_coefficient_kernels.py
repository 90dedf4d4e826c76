"""The top-coefficient kernels over Q and two shortcuts over Q(zeta m).

`_top_root` and `series_root` read roots off top coefficients, over Q as
integer vectors whose common denominator cancels; `solve_intertwiner`,
`solve_eta` and `complete_decompositions` are built on them and pinned on
the benchmark's `ritt_q` inputs.  A rational `CycElem` inverts in closed
form, and `bivar._row_gcd` starts from its first nonzero row.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import rittkit as rk
from rittkit import QQ, CycElem, Poly, cyclotomic_field, poly_gcd
from rittkit.bivar import _row_gcd
from rittkit.poly import _top_root, series_root

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

sys.path.remove(str(BENCH))

PROPS = settings(derandomize=True, max_examples=40, deadline=None,
                 database=None)

wide_q = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 64)))
fields = st.sampled_from([QQ, QQ, cyclotomic_field(5), cyclotomic_field(8)])


def scalars(K):
    if K == QQ:
        return wide_q
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(small, min_size=K.degree, max_size=K.degree).map(
        lambda v: CycElem(K, v))


@st.composite
def polys(draw, K, min_degree, max_degree):
    d = draw(st.integers(min_degree, max_degree))
    coeffs = draw(st.lists(scalars(K), min_size=d, max_size=d))
    return Poly.make(K, coeffs + [draw(scalars(K).filter(bool))])


@PROPS
@given(data=st.data(), K=fields, n=st.integers(2, 4))
def test_top_root_reads_a_planted_root(data, K, n):
    """F = c*h^n + (terms below the window): _top_root gives the top of
    the monic h, whatever the sign and size of c."""
    h = data.draw(polys(K, 1, 4))
    terms = data.draw(st.integers(1, h.degree + 1))
    c = data.draw(scalars(K).filter(bool))
    below = n * h.degree - terms
    tail = data.draw(polys(K, 0, below)) if below >= 0 else Poly(K, ())
    F = (h ** n).scale(c) + tail
    assert _top_root(F, n, terms) == list(h.monic().coeffs[::-1][:terms])


@PROPS
@given(top=st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=9)
       .filter(lambda t: t[0]), n=st.integers(1, 5))
def test_series_root_of_integers_divides_by_the_first(top, n):
    """An integer top, T_0 of either sign, is read as T/T_0."""
    terms = len(top)
    scaled = [Fraction(t, top[0]) for t in top]
    assert series_root(top, n, terms) == series_root(scaled, n, terms)


@PROPS
@given(data=st.data(), K=fields)
def test_left_factor_solve_reads_a_planted_left_factor(data, K):
    """The digits alone prove F = g o h: a wrong digit fails here."""
    g, h = data.draw(polys(K, 1, 3)), data.draw(polys(K, 1, 3))
    assert rk.left_factor_solve(rk.compose(g, h), h) == g


# sha256 of the lines "seed kind repr(result)" below, as computed before
# the top-coefficient kernels over Q moved to integer vectors.
RITT_Q_PIN = "02c7ca34bcf0c7825468bbf483da72bbe7133b2d47e579f01770ddd5af8b56bd"


def test_solvers_on_ritt_q_inputs_are_pinned():
    lines = []
    for seed in range(1, 11):
        for kind, args, _ in workloads.generate("ritt_q", seed):
            f = Poly.make(QQ, args["f"])
            if kind == "complete_decompositions":
                r = rk.complete_decompositions(f)
            elif kind == "solve_eta":
                r = rk.solve_eta(f, Poly.make(QQ, args["p"]))
            elif kind == "solve_intertwiner":
                r = rk.solve_intertwiner(f, Poly.make(QQ, args["eta"]),
                                         len(args["p"]) - 1)
            else:
                continue
            lines.append(f"{seed} {kind} {r!r}")
    assert len(lines) == 1100
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == RITT_Q_PIN


@PROPS
@given(m=st.sampled_from([3, 4, 5, 7, 8, 12]),
       q=wide_q.filter(bool))
def test_rational_inverse_is_the_sequence_inverse(m, q):
    x = cyclotomic_field(m).coerce(q)
    inv = x.inverse()
    assert inv == x._sequence_inverse()
    assert inv.den > 0 and inv == 1 / q


def old_row_gcd(field, rows):
    """The fold _row_gcd replaced: poly_gcd from the zero Poly up."""
    g = Poly(field, ())
    for r in sorted(rows, key=lambda r: r.degree):
        g = poly_gcd(g, r)
        if g.degree == 0:
            break
    return g


@PROPS
@given(data=st.data(), K=fields)
def test_row_gcd_matches_the_old_fold(data, K):
    """Rows with zeros among them, a planted common factor or none."""
    common = data.draw(st.sampled_from([None, 0, 1, 2]))
    g = Poly.make(K, [1]) if common is None else data.draw(polys(K, common,
                                                                 common))
    rows = [Poly(K, ()) if data.draw(st.booleans()) else
            data.draw(polys(K, 0, 2)) * g
            for _ in range(data.draw(st.integers(1, 5)))]
    got = _row_gcd(K, rows)
    assert got == old_row_gcd(K, rows)
    assert not got or got.leading() == 1


def test_row_gcd_of_zero_rows():
    for K in (QQ, cyclotomic_field(5)):
        zero = Poly(K, ())
        assert _row_gcd(K, []) == zero
        assert _row_gcd(K, [zero, zero]) == zero
        lone = Poly.make(K, [2, 0, 3])
        assert _row_gcd(K, [zero, lone, zero]) == lone.monic()
        assert _row_gcd(K, [zero, Poly.make(K, [5])]) == Poly.make(K, [1])
