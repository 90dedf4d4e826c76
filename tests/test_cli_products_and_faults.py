"""Every product in the surface syntax passes the parser's size estimate,
and a fault inside a command ends in `error: internal`, exit code 1.

Before products outside a power were estimated, the first two CLI inputs
below took 17 s and more than 60 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rittkit
from rittkit import cli
from rittkit.errors import (BadReductionError, CollapsedImageError,
                            FieldExtensionRequiredError,
                            HypothesisViolationError, ParseError,
                            ResourceCapError)
from rittkit.parser import POWER_SIZE_CAP, parse_bivar, parse_poly

SRC = str(Path(rittkit.__file__).resolve().parent.parent)

PRODUCTS = ["(x+1)^2235*(x+1)^2235",
            "(x+1)^1200*(x+1)^1200*(x+1)^1200*(x+1)^1200",
            "(3*x-2)^1000*(3*x-2)^1000*(3*x-2)^1000"]


@pytest.mark.parametrize("text", PRODUCTS)
def test_product_of_large_factors_hits_size_cap(text):
    out = subprocess.run([sys.executable, "-m", "rittkit.cli", "classify",
                          "--f", text], env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=10, capture_output=True, text=True)
    assert out.returncode == 3
    assert f"POWER_SIZE_CAP = {POWER_SIZE_CAP}" in out.stdout


def test_product_cap_message_names_no_exponent():
    with pytest.raises(ResourceCapError) as exc:
        parse_bivar("(x+y)^40*(x+y)^40")
    assert "POWER_SIZE_CAP" in str(exc.value)
    assert "exponent" not in str(exc.value)


def test_products_under_the_cap_still_parse():
    assert parse_poly("(x+1)^3*(x-1)^2*x") == (parse_poly("x+1") ** 3
                                               * parse_poly("x-1") ** 2
                                               * parse_poly("x"))
    assert parse_poly("(x+1)^1000*(x+1)^1000") == parse_poly("(x+1)^2000")


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(args, field, doc):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "_cmd_classify", broken)
    code = cli.run_command(["classify", "--f", "x^2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 1
    assert captured.out == ("command: classify\nerror: internal\n"
                            "message: unsupported operand\n")
    assert "Traceback" not in captured.out + captured.err


# One case per row of `cli.OUTCOMES` (TypeError is the case above), so a
# reordered table changes some stdout or exit code.
OUTCOME_CASES = [
    (ParseError("unexpected character", position=4), 2,
     "error: parse\nmessage: unexpected character\nposition: 4\n"),
    (ParseError("need at least one prime"), 2,
     "error: parse\nmessage: need at least one prime\n"),
    (ResourceCapError("DEGREE_CAP = 10000"), 3,
     "error: resource-cap\nmessage: DEGREE_CAP = 10000\n"),
    (FieldExtensionRequiredError("no in-field root", equation="t^2 = 2"), 4,
     "error: field-extension-required\nmessage: no in-field root\n"
     "equation: t^2 = 2\n"),
    (CollapsedImageError("image is not a curve"), 0,
     "result: collapsed\nmessage: image is not a curve\n"),
    (HypothesisViolationError("f must be disintegrated"), 2,
     "error: input\nmessage: f must be disintegrated\n"),
    (BadReductionError("4 is not an odd prime"), 2,
     "error: input\nmessage: 4 is not an odd prime\n"),
    (ValueError("zero polynomial has every root"), 2,
     "error: input\nmessage: zero polynomial has every root\n"),
]


@pytest.mark.parametrize("exc, code, tail", OUTCOME_CASES, ids=[
    "parse-position", "parse", "resource-cap", "field-extension", "collapsed",
    "hypothesis", "bad-reduction", "value-error"])
def test_each_error_class_ends_in_its_outcome(monkeypatch, capsys, exc, code,
                                              tail):
    def raising(args, field, doc):
        raise exc

    monkeypatch.setattr(cli, "_cmd_classify", raising)
    assert cli.run_command(["classify", "--f", "x^2"]) == code
    assert capsys.readouterr().out == "command: classify\n" + tail
