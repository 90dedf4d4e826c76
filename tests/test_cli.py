import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from conftest import random_poly, rng_for

from rittkit import QQ, BivarPoly, Poly, cyclotomic_field, parse_bivar, parse_poly
from rittkit.cli import run_command


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(argv)
    return code, buf.getvalue()


def test_parser_roundtrip_rational():
    rng = rng_for("cli-roundtrip-q")
    for _ in range(200):
        p = random_poly(rng, rng.randint(0, 6))
        assert parse_poly(str(p)) == p


def test_parser_roundtrip_cyclotomic():
    rng = rng_for("cli-roundtrip-z")
    K = cyclotomic_field(5)
    for _ in range(100):
        coeffs = []
        for _ in range(rng.randint(1, 5)):
            vec = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            coeffs.append(K.coerce(0) + sum(
                (K.zeta() ** i) * v for i, v in enumerate(vec) if v))
        p = Poly.make(K, coeffs) if any(coeffs) else Poly(K, ())
        from rittkit import parse_poly as pp
        assert pp(str(p), K) == p


def test_parser_roundtrip_bivar():
    rng = rng_for("cli-roundtrip-b")
    for _ in range(100):
        rows = []
        for _ in range(rng.randint(1, 4)):
            rows.append(random_poly(rng, rng.randint(0, 3)))
        b = BivarPoly.make(QQ, rows)
        assert parse_bivar(str(b)) == b


def test_classify_command():
    code, out = run(["classify", "--f", "x^3 + x"])
    assert code == 0
    assert "disintegrated: true" in out


def test_bound_c_command_golden():
    code, out = run(["bound-c", "2", "2"])
    assert code == 0
    assert "value: 2147483648" in out
    assert "c1(2,2) = 32" in out


def test_determinism_byte_identical():
    for argv in (["bound-c", "2", "2"],
                 ["classify", "--f", "x^3 + x"],
                 ["gamma", "--f", "x^3 + x"],
                 ["ms-diagonal", "--f", "x^3 + x", "--deg-cap", "2"],
                 ["orbit", "--f1", "x^2", "--f2", "x^2 + 1",
                  "--alpha", "2,0", "--n", "4"]):
        c1, o1 = run(argv)
        c2, o2 = run(argv)
        assert c1 == c2 == 0
        assert o1 == o2


def test_curve_period_cyclotomic():
    code, out = run(["curve-period", "--field", "Q(zeta 7)",
                     "--curve", "x - z*y", "--f", "x^2", "--g", "x^2",
                     "--nmax", "5"])
    assert code == 0
    assert "period: 3" in out
    assert "verified: true" in out


def test_exit_code_parse_error():
    code, out = run(["classify", "--f", "x^3 + $"])
    assert code == 2
    assert "position" in out


def test_exit_code_resource_cap():
    code, out = run(["decompose", "--f", "x^4 + 1", "--degree-cap", "1"])
    assert code == 3


def test_exit_code_extension_required():
    code, out = run(["solve-eta", "--f", "2*x^2", "--p", "x^2"])
    assert code == 4
    assert "equation" in out


def test_exit_code_ok():
    code, _ = run(["m-infinity", "--f", "x^2 + 1"])
    assert code == 0


def test_gamma_command():
    code, out = run(["gamma", "--f", "x^3 + x"])
    assert code == 0
    assert "Finite" in out
    assert "-x" in out


def test_return_set_modp_primes_list():
    code, out = run(["return-set-modp", "--f1", "x^2", "--f2", "x^2",
                     "--alpha", "2,3", "--curve", "y - x",
                     "--n", "3", "--primes", "5,7"])
    assert code == 0
    assert "intersection" in out


def test_preperiodic_command():
    code, out = run(["preperiodic", "--f", "x^2 - 1", "--a", "0", "--n", "8"])
    assert code == 0
    assert "Preperiodic" in out


def test_z_without_cyclotomic_field_rejected():
    code, out = run(["classify", "--f", "z*x^2"])
    assert code == 2


def test_return_set_modp_negative_n_rejected():
    code, out = run(["return-set-modp", "--f1", "x^2", "--f2", "x^2",
                     "--alpha", "2,3", "--curve", "y - x",
                     "--n", "-3", "--primes", "5"])
    assert code == 2
    assert "N must be >= 0" in out


INVALID_CAPS = [
    (["orbit", "--f1", "x^2", "--f2", "x^2", "--alpha", "2,0", "--n", "3",
      "--height-cap", "-1"], "height_cap must be >= 1"),
    (["return-set", "--f1", "x^2", "--f2", "x^2", "--alpha", "2,0",
      "--curve", "y - x", "--n", "3", "--height-cap", "-1"],
     "height_cap must be >= 1"),
    (["preperiodic", "--f", "x^2 - 1", "--a", "0", "--n", "8",
      "--height-cap", "-1"], "height_cap must be >= 1"),
    (["decompose", "--f", "x^4 + 1", "--degree-cap", "-5"],
     "degree_cap must be >= 1"),
    (["curve-period", "--curve", "x - y", "--f", "x^2", "--g", "x^2",
      "--degree-cap", "-1"], "degree_cap must be >= 1"),
    (["common-semiconj", "--f", "x^2 + 1", "--g", "x^2 + 1", "--nmax", "0"],
     "N_max must be >= 1"),
    (["approx-classes", "--f", "x^2 + 1", "--nmax", "-1"],
     "N_max must be >= 1"),
]


@pytest.mark.parametrize("argv, message", INVALID_CAPS,
                         ids=[argv[0] for argv, _ in INVALID_CAPS])
def test_invalid_cap_and_count_flags_rejected(argv, message):
    code, out = run(argv)
    assert code == 2
    assert message in out
