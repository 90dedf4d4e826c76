"""Each solver returns what its construction proves, with no second check.

The certificates' `verify` methods stay for callers and for these tests;
no solver calls them.  The pinned cases below fail when a construction
goes wrong in a way its old re-check used to hide: a reversed P, a wrong
alignment map, an unscaled P2.  Other tests pin two answers that used to
be wrong at the command line, an extension request for a P that lies in
the field and a library fault reported as an input error, and the
infinite symmetry group of a translated power map.
"""

from fractions import Fraction

import pytest

from rittkit import (QQ, LinearPoly, Poly, SemiconjWitness, align_iterates,
                     cli, common_semiconjugate, compose, conjugate,
                     cyclotomic_field, decompose, decompose_power_form,
                     engstrom_refine, gamma_group, inou_normal_form, iterate,
                     power_normal_form, preperiodic_check, symmetry)
from rittkit.decompose import EngstromCertificate
from rittkit.dml import EscapeCertificate
from rittkit.semiconj import CommonWitness, InouNormalForm
from rittkit.symmetry import PowerNormalForm

X = Poly.x(QQ)
K5, K8 = cyclotomic_field(5), cyclotomic_field(8)


def P(*coeffs, field=QQ):
    return Poly.make(field, list(coeffs))


def inou_witness(c, b, core, ell):
    """f o p = p o eta with ell o f o ell^{-1} = x^c core^b, ell o p = x^b
    and eta = x^c core(x^b)."""
    field = core.field
    xb = Poly.monomial(field, b)
    f = Poly.monomial(field, c) * core ** b
    eta = Poly.monomial(field, c) * compose(core, xb)
    return SemiconjWitness(conjugate(ell.inverse(), f),
                           compose(ell.inverse().to_poly(), xb), eta)


# sqrt(2) = z - z^3 in Q(zeta 8): P is read off eta, so no root is taken
Z8 = K8.zeta()
SQRT2 = Z8 - Z8 ** 3
ZETA8_WITNESS = SemiconjWitness(P(0, 2, 4, 2, field=K8), Poly.monomial(K8, 2),
                                P(0, SQRT2, 0, SQRT2, field=K8))
ZETA8_ARGS = ["inou", "--field", "Q(zeta 8)", "--f", "2*x^3 + 4*x^2 + 2*x",
              "--p", "x^2", "--eta", "(z - z^3)*x^3 + (z - z^3)*x"]

# P = 3x^2 + x + 2 and z*x^2 + 2x - 1 are not palindromic
INOU_CASES = [
    (LinearPoly.make(QQ, 2, 1), P(2, 1, 3)),
    (LinearPoly.make(K5, K5.zeta(), 1), P(-1, 2, K5.zeta(), field=K5)),
    (LinearPoly.identity(K8), P(SQRT2, SQRT2, field=K8)),
]
INOU_WITNESSES = [inou_witness(1, 2, core, ell) for ell, core in INOU_CASES]

# b = 1: f = x^3 + x + 1 fixes -1, p = 2x + 1 and eta = p^{-1} o f o p
DEGENERATE = SemiconjWitness(P(1, 1, 0, 1), P(1, 2), compose(
    P(Fraction(-1, 2), Fraction(1, 2)), compose(P(1, 1, 0, 1), P(1, 2))))
# 4x(x^3 + 1)^2 and 8x(x^2 + 1)^3 share eta = x*(2*(x^6 + 1)) only with
# the square root 2 of 4 and the cube root 2 of 8 taken
SHAPES = (4 * X * P(1, 0, 0, 1) ** 2, 8 * X * P(1, 0, 1) ** 3)
# g is even, so g o (-x) = g and -g = ell o g o ell^{-1} for ell = -x
EVEN_G, MINUS = P(2, 0, 1, 0, 1), LinearPoly.make(QQ, -1, 0)
# B = 3x(x + 2)^2 + 5, so P2 = 3(x + 2) and ell = 3x - 15; A = D o ell
# with D = 4x(x + 1)^2, so P1 = 2(x + 1)
POWER_B = P(5) + 3 * X * P(2, 1) ** 2
POWER_A = compose(4 * X * P(1, 1) ** 2, P(-15, 3))


@pytest.mark.parametrize("w, ell, core", [
    (w, *case) for w, case in zip(INOU_WITNESSES, INOU_CASES)],
    ids=["Q", "Q(zeta 5)", "Q(zeta 8)"])
def test_inou_reads_a_non_palindromic_P_off_eta(w, ell, core):
    nf = inou_normal_form(w)
    assert (nf.b, nf.c, nf.ell1, nf.P) == (2, 1, ell, core)
    assert nf.verify(w)


def test_inou_degenerate_witness_with_a_linear_p():
    nf = inou_normal_form(DEGENERATE)
    assert (nf.b, nf.c, nf.P) == (1, 1, P(4, -3, 1))
    assert (nf.ell1, nf.ell2) == (LinearPoly.make(QQ, 1, 1),
                                  LinearPoly.make(QQ, 2, 2))
    assert nf.verify(DEGENERATE)


def test_inou_field_extension_not_requested_for_an_in_field_P():
    nf = inou_normal_form(ZETA8_WITNESS)
    assert str(nf.P) == "(z - z^3)*x + (z - z^3)"
    assert ZETA8_WITNESS == INOU_WITNESSES[2]
    assert nf.verify(ZETA8_WITNESS)


def test_inou_cli_answers_over_q_zeta_8(capsys):
    assert cli.run_command(ZETA8_ARGS) == 0
    out = capsys.readouterr().out
    assert "P: (z - z^3)*x + (z - z^3)\n" in out
    assert out.endswith("verified: true\n")


def test_common_semiconjugate_scales_a_non_monic_power_shape():
    f, g = SHAPES
    eta = P(0, 2, 0, 0, 0, 0, 0, 2)
    got = common_semiconjugate(f, g, N_max=1, deg_cap=3)
    assert (got.N, got.eta, got.p, got.q) == (1, eta, P(0, 0, 1),
                                              P(0, 0, 0, 1))
    assert got.verify(f, g)
    got = common_semiconjugate(g, f, N_max=1, deg_cap=3)
    assert (got.eta, got.p, got.q) == (eta, P(0, 0, 0, 1), P(0, 0, 1))
    assert got.verify(g, f)


def test_align_iterates_finds_a_non_identity_ell():
    assert align_iterates(-EVEN_G, EVEN_G, MINUS, 2) == (MINUS, 1)
    # conjugating both maps by T gives ell = T o (-x) o T^{-1}
    T = LinearPoly.make(QQ, 2, 1)
    f, g = conjugate(T, -EVEN_G), conjugate(T, EVEN_G)
    ell, N = align_iterates(f, g, T.after(MINUS).after(T.inverse()), 3)
    assert (ell, N) == (LinearPoly.make(QQ, -1, 2), 1)
    assert iterate(f, N) == iterate(conjugate(ell, g), N)


def power_split_holds(split, A, B):
    """A = x^j P1^2 o ell and ell o B = x^k P2^2."""
    ell = split.ell.to_poly()
    return (compose(X ** split.j * split.P1 ** 2, ell) == A
            and compose(ell, B) == X ** split.k * split.P2 ** 2)


def test_decompose_power_form_with_non_monic_factors():
    split = decompose_power_form(POWER_A, POWER_B, 1, 2)
    assert (split.j, split.k, split.P1, split.P2, split.ell) == (
        1, 1, P(2, 2), P(6, 3), LinearPoly.make(QQ, 3, -15))
    assert power_split_holds(split, POWER_A, POWER_B)


def _raise(*args, **kwargs):
    raise AssertionError("a solver re-checked its own construction")


def test_no_solver_calls_its_certificates_verify(monkeypatch):
    for cls in (InouNormalForm, PowerNormalForm, EngstromCertificate,
                EscapeCertificate, CommonWitness):
        monkeypatch.setattr(cls, "verify", _raise)
    for name in ("iterate", "conjugate"):
        monkeypatch.setattr(symmetry, name, _raise, raising=False)
    runs = [(inou_normal_form(w), (w,)) for w in INOU_WITNESSES + [DEGENERATE]]
    # the direct route, then the two power-shape routes
    f, g = SHAPES
    pairs = [(P(0, 0, 0, 1) * P(1, 1) ** 2, P(0, 0, 0, 1, 0, 1)), (f, g),
             (g, f)]
    for f, g in pairs:
        runs.append((common_semiconjugate(f, g, N_max=1, deg_cap=3), (f, g)))
    K3 = cyclotomic_field(3)
    for A in (P(0, 1, 0, 1), P(7, 0, 1, 1), P(0, 1, 0, 0, 1, field=K3)):
        runs.append((power_normal_form(A), (A,)))
    quads = [(P(0, 0, 1), P(0, 1, 1), P(1, -2, 1), P(1, 1, 1)),
             (P(0, 0, 1), P(0, 0, 0, 1), P(0, 0, 0, 1), P(0, 0, 1)),
             (P(1, 2, 1), compose(P(0, 3, 1), P(0, 1, 0, 1)),
              compose(P(1, 2, 1), P(0, 3, 1)), P(0, 1, 0, 1))]
    for quad in quads:
        runs.append((engstrom_refine(*quad), quad))
    f, a = P(1, 0, 1), Fraction(0)
    res = preperiodic_check(f, a, 10)
    assert res.kind == "Escape"
    runs.append((res.certificate, (f,)))
    ell, N = align_iterates(-EVEN_G, EVEN_G, MINUS, 2)
    split = decompose_power_form(POWER_A, POWER_B, 1, 2)
    monkeypatch.undo()
    for cert, args in runs:
        assert cert.verify(*args)
    assert iterate(-EVEN_G, N) == iterate(conjugate(ell, EVEN_G), N)
    assert power_split_holds(split, POWER_A, POWER_B)


def test_gamma_of_a_translated_power_map_is_infinite():
    # 3/4*(x + 1)^4 + 11/12 is a random a o b of one ritt_q benchmark seed
    f = compose(P(Fraction(11, 12), 0, 0, 0, Fraction(3, 4)), P(1, 1))
    assert f == P(Fraction(5, 3), 3, Fraction(9, 2), 3, Fraction(3, 4))
    grp = gamma_group(f)
    assert grp.kind == "Infinite" and grp.order() is None


def _nested_factors_missing(real):
    """left_factor_solve that fails between the right factors of x^8,
    as if they were not nested by degree."""
    return lambda F, h: None if F.degree < 8 else real(F, h)


@pytest.mark.parametrize("module, name, patch, argv", [
    (decompose, "left_factor_solve", _nested_factors_missing,
     ["decompose", "--f", "x^8"]),
    (decompose, "left_factor_solve", lambda real: lambda F, h: None,
     ["engstrom", "--a", "x^2", "--b", "x^3", "--c", "x^3", "--d", "x^2"]),
    (symmetry, "_find_generator", lambda real: lambda elements: None,
     ["gamma", "--f", "x^3 + x"]),
], ids=["decompose", "engstrom", "gamma"])
def test_library_fault_is_an_internal_error(monkeypatch, capsys, module,
                                            name, patch, argv):
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    assert cli.run_command(argv) == cli.EXIT_INTERNAL == 1
    out = capsys.readouterr().out
    assert "error: internal\nmessage: " in out
    assert "error: input" not in out
