"""One work budget per parsed expression: a sum of products, each under
the per-product caps, ends in a resource-cap error once their total
estimate passes EXPRESSION_WORK_CAP."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rittkit
from rittkit import parser
from rittkit.errors import ResourceCapError
from rittkit.parser import EXPRESSION_WORK_CAP, parse_poly

SRC = str(Path(rittkit.__file__).resolve().parent.parent)


def test_sum_of_large_powers_hits_the_expression_cap():
    # eight powers under POWER_SIZE_CAP: built in full, the sum took
    # about 4 s to parse before the classification even began
    text = " + ".join(["(x+1)^2000"] * 8)
    out = subprocess.run([sys.executable, "-m", "rittkit.cli", "classify",
                          "--f", text], env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=10, capture_output=True, text=True)
    assert out.returncode == 3
    assert f"EXPRESSION_WORK_CAP = {EXPRESSION_WORK_CAP}" in out.stdout


def test_the_budget_is_per_expression(monkeypatch):
    term = "(x+1)^50"
    one = parser._Parser(term, rittkit.QQ)
    one.parse()
    monkeypatch.setattr(parser, "EXPRESSION_WORK_CAP", 3 * one.work // 2)
    assert parse_poly(term) == parse_poly(term)
    with pytest.raises(ResourceCapError, match="EXPRESSION_WORK_CAP"):
        parse_poly(f"{term} + {term}")
    with pytest.raises(ResourceCapError, match="EXPRESSION_WORK_CAP"):
        parse_poly(f"{term}*{term}")
