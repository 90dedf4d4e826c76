import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_poly, rng_for

import rittkit
from rittkit import QQ, BivarPoly, Poly, cyclotomic_field, parse_bivar, parse_poly
from rittkit.cli import _commands, run_command
from rittkit.dml import MODP_WORK_CAP
from rittkit.errors import ParseError, ResourceCapError
from rittkit.parser import MAX_NESTING, POWER_BITS_CAP, POWER_SIZE_CAP
from rittkit.poly import DEGREE_CAP
from rittkit.roots import is_prime


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


def test_return_set_modp_repeated_prime_prints_once():
    code, out = run(["return-set-modp", "--f1", "x^2", "--f2", "x^2",
                     "--alpha", "2,3", "--curve", "y - x",
                     "--n", "10", "--primes", "5,5"])
    assert (code, out) == (0, "command: return-set-modp\n"
                               "mod_5: 1,2,3,4,5,6,7,8,9,10\n"
                               "intersection: 1,2,3,4,5,6,7,8,9,10\n")


def test_return_set_modp_n_above_the_work_cap_exits_3():
    # x^2, x^2 and y - x reduce 3 + 3 + 4 Horner terms per orbit step
    n = MODP_WORK_CAP // 10
    code, out = run(["return-set-modp", "--f1", "x^2", "--f2", "x^2",
                     "--alpha", "2,3", "--curve", "y - x",
                     "--n", str(n), "--primes", "5"])
    assert (code, out) == (3, "command: return-set-modp\n"
                              "error: resource-cap\n"
                              f"message: N = {n}: (N + 1)*10 Horner terms "
                              f"exceeds cap {MODP_WORK_CAP}\n")


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


# -- hostile input ends in its documented exit code, in a fresh interpreter

SRC = str(Path(rittkit.__file__).resolve().parent.parent)


def run_cli_limited(argv, limit_s=10):
    """Run the CLI in a subprocess; fail the test if it runs past limit_s."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "rittkit.cli", *argv],
                          env=env, timeout=limit_s, capture_output=True,
                          text=True)


def test_return_set_modp_large_prime_is_fast():
    out = run_cli_limited(["return-set-modp", "--f1", "x^2", "--f2", "x^2",
                           "--alpha", "2,3", "--curve", "y - x", "--n", "3",
                           "--primes", "1000000000000000003"])
    assert out.returncode == 0
    assert out.stdout.endswith("intersection: empty\n")


def test_return_set_modp_long_prime_list_exits_3_quickly():
    # MODP_WORK_CAP bounds the whole call: per prime, 1,000 primes at
    # N = 99,999 ran for minutes (0.2 s each)
    primes = [p for p in range(3, 8000) if is_prime(p)][:1000]
    out = run_cli_limited(["return-set-modp", "--f1", "x^2", "--f2", "x^2",
                           "--alpha", "2,3", "--curve", "y - x",
                           "--n", "99999",
                           "--primes", ",".join(map(str, primes))],
                          limit_s=5)
    assert (out.returncode, out.stdout) == (
        3, "command: return-set-modp\nerror: resource-cap\n"
           "message: N = 99999: 1000 primes*(N + 1)*10 Horner terms "
           f"exceeds cap {MODP_WORK_CAP}\n")


def test_huge_exponent_hits_degree_cap():
    out = run_cli_limited(["classify", "--f", "x^99999999"])
    assert out.returncode == 3
    assert "DEGREE_CAP = 10000" in out.stdout


def test_huge_constant_power_hits_size_cap():
    out = run_cli_limited(["classify", "--f", "x^2 + 2^99999999"])
    assert out.returncode == 3
    assert f"POWER_BITS_CAP = {POWER_BITS_CAP}" in out.stdout


# Powers under the degree and bit caps whose expansion is too large to
# build.  Without an estimate before each product, each ran past the limit
# or built the very product that tripped the bit cap.
@pytest.mark.parametrize("argv", [
    ["classify", "--f", "(x+1)^10000"],
    ["classify", "--f", "(x+y)^5001"],
    ["curve-image", "--curve", "(x + y)^256", "--f", "x^2", "--g", "x^2"],
    ["preperiodic", "--f", "((y-10^400)^2)^300", "--a", "0"],
    ["classify", "--field", "Q(zeta 3)", "--f", "(x + z)^5000"],
])
def test_hostile_power_hits_size_cap(argv):
    out = run_cli_limited(argv)
    assert out.returncode == 3
    assert f"POWER_SIZE_CAP = {POWER_SIZE_CAP}" in out.stdout


@pytest.mark.parametrize("order", ["1001", "100003", "99999999999"])
def test_huge_cyclotomic_order_hits_field_cap(order):
    out = run_cli_limited(["classify", "--field", f"Q(zeta {order})",
                           "--f", "z*x^2"])
    assert out.returncode == 3
    assert "CYCLOTOMIC_DEGREE_CAP = 256" in out.stdout


def test_deep_parentheses_are_a_parse_error():
    depth = 1000
    out = run_cli_limited(["classify", "--f", "(" * depth + "x" + ")" * depth])
    assert out.returncode == 2
    assert "error: parse" in out.stdout and "position: 100" in out.stdout


def test_bound_c_5_5_prints_symbolic_value():
    out = run_cli_limited(["bound-c", "5", "5"])
    assert out.returncode == 0
    assert "exact: false" in out.stdout
    assert out.stdout.startswith("command: bound-c\nvalue: ")


def test_parser_limits_in_process():
    depth = MAX_NESTING
    assert parse_poly("(" * depth + "x" + ")" * depth) == Poly.x(QQ)
    with pytest.raises(ParseError):
        parse_poly("(" * (depth + 1) + "x" + ")" * (depth + 1))
    assert parse_poly(f"x^{DEGREE_CAP}") == Poly.monomial(QQ, DEGREE_CAP)
    with pytest.raises(ResourceCapError):
        parse_bivar(f"(x + y)^{DEGREE_CAP + 1}")
    assert parse_poly("(x + 1)^13") == Poly.make(QQ, [1, 1]) ** 13
    assert parse_poly("(2*x - 1/3)^0") == Poly.constant(QQ, 1)
    assert parse_poly("2^99999") == Poly.constant(QQ, 2 ** 99999)
    with pytest.raises(ResourceCapError):
        parse_poly("(1/3)^199999")
    K = cyclotomic_field(5)
    assert parse_poly("z^99999999", K) == Poly.constant(K, K.zeta() ** 4)
    with pytest.raises(ResourceCapError):
        parse_poly("(1 + z)^99999999", K)


# Success paths of the subcommands the README examples do not run, with the
# escape branch of preperiodic and the collapsed-image exit.
SUCCESS_PATHS = [
    (["engstrom", "--a", "x^2 + 1", "--b", "x^6 + x^3",
      "--c", "x^4 + 2*x^3 + x^2 + 1", "--d", "x^3"],
     "command: engstrom\ng: x^2 + 1\nh: x^3\na_hat: x\nb_hat: x^2 + x\n"
     "c_hat: x^2 + x\nd_hat: x\nell: absent\nverified: true\n"),
    (["semiconj-check", "--f", "x^3*(x + 1)^2", "--p", "x^2",
      "--eta", "x^5 + x^3"],
     "command: semiconj-check\nholds: true\n"),
    (["solve-p", "--f", "x^3*(x + 1)^2", "--eta", "x^5 + x^3",
      "--deg-bound", "3"],
     "command: solve-p\nsolutions: 1\n  - x^2\n"),
    (["common-semiconj", "--f", "x*(x^3 + 1)^2", "--g", "x*(x^2 + 1)^3",
      "--nmax", "1", "--deg-cap", "3"],
     "command: common-semiconj\nN: 1\neta: x^7 + x\np: x^2\nq: x^3\n"
     "verified: true\n"),
    (["common-semiconj", "--f", "x^2 + 1", "--g", "x^2 + 2",
      "--nmax", "1", "--deg-cap", "4"],
     "command: common-semiconj\nwitness: absent at caps\n"),
    (["approx-classes", "--f", "x*(x^3 + 1)^2", "--f", "x*(x^2 + 1)^3",
      "--nmax", "1", "--deg-cap", "3"],
     "command: approx-classes\nclasses: 1\n  - 0,1\n"
     "class_0_theta: x^7 + x\nclass_0_N: 1\n  class_0_p_0: x^2\n"
     "  class_0_p_1: x^3\n"),
    (["curve-image", "--curve", "y - x^2", "--f", "x^2", "--g", "x^2"],
     "command: curve-image\nimage: -y + x^2\n"),
    (["curve-image", "--curve", "1", "--f", "x^2", "--g", "x^2"],
     "command: curve-image\nresult: collapsed\nmessage: image is not a curve\n"),
    (["bound-c1", "2", "2"],
     "command: bound-c1\nvalue: 32\nexact: true\ntrace: \n"
     "  - c1(2,2) = 32\n"),
    (["return-set", "--f1", "x^2", "--f2", "x^2", "--alpha", "2,2",
      "--curve", "y - x", "--n", "4"],
     "command: return-set\nindices: 0,1,2,3,4\ntruncated_at: none\n"),
    (["progressions", "--set", "1,3,5,7,9", "--horizon", "10"],
     "command: progressions\nprogressions: 1\n  - {1 + 2k}\n"),
    (["preperiodic", "--f", "x^2 + 1", "--a", "0", "--n", "10"],
     "command: preperiodic\nkind: Escape\nindex: 3\nradius: 3\nvalue: 5\n"
     "verified: true\n"),
    (["m-infinity", "--field", "Q(zeta 3)", "--f", "x^5 + x^2"],
     "command: m-infinity\norder: 3\nelements: \n  - x\n  - (-1 - z)*x\n"
     "  - z*x\ngenerator: (-1 - z)*x\nstable_at: 3\n"),
]


@pytest.mark.parametrize("argv, stdout", SUCCESS_PATHS,
                         ids=[" ".join(a[:2]) for a, _ in SUCCESS_PATHS])
def test_subcommand_success_paths(argv, stdout):
    assert run(argv) == (0, stdout)


def test_every_command_has_a_byte_pinned_stdout():
    golden = json.loads((Path(__file__).resolve().parent.parent / "bench"
                         / "golden_cli.json").read_text(encoding="utf-8"))
    pinned = ({e["argv"][0] for e in golden["commands"]}
              | {argv[0] for argv, _ in SUCCESS_PATHS})
    assert [name for name in _commands() if name not in pinned] == []


def test_first_malformed_flag_in_table_order_is_reported():
    # --curve comes before --f1 in the table and in --help
    assert run(["return-set", "--f1", "x^", "--curve", "y -", "--f2", "x^2",
                "--alpha", "2,0"]) == (
        2, "command: return-set\nerror: parse\n"
        "message: unexpected end of input\nposition: 3\n")


def test_approx_classes_unequal_degrees():
    code, out = run(["approx-classes", "--f", "x^2 + 1", "--f", "x^5 + x^3"])
    assert code == 0
    assert "classes: 2\n  - 0\n  - 1\n" in out


def test_classify_coefficient_beyond_float_range():
    out = run_cli_limited(["classify", "--f", "2^1100*x^2"])
    assert out.returncode == 0
    assert out.stdout.startswith("command: classify\n")


def test_solve_eta_first_power_lead_in_field():
    code, out = run(["solve-eta", "--field", "Q(zeta 5)", "--f", "x^2",
                     "--p", "(1+z)*x"])
    assert code == 0
    assert out == "command: solve-eta\neta: (1 + z)*x^2\n"


def test_extension_equation_prints_scalar():
    code, out = run(["solve-eta", "--field", "Q(zeta 3)", "--f", "x^2",
                     "--p", "2*x^2"])
    assert code == 4
    assert "equation: t^2 = 2\n" in out


def test_classify_unary_minus_after_operator():
    code, out = run(["classify", "--f", "x^3 + -2*x"])
    assert code == 0
    assert out == run(["classify", "--f", "x^3 - 2*x"])[1]
