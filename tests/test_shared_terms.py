"""Hash, equality and normalisation of the bound terms walk shared nodes
once: c1(2, 40) has about 2^40 nodes in its tree expansion but builds in
milliseconds, and each of these must end within a time limit in a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import rittkit
from rittkit import ConstantExpr, bound_c, bound_c1

SRC = str(Path(rittkit.__file__).resolve().parent.parent)


def test_deep_terms_hash_compare_and_normalize_quickly():
    code = ("from rittkit import bound_c, bound_c1\n"
            "a, b = bound_c1(2, 40), bound_c1(2, 40)\n"
            "assert a is not b and hash(a) == hash(b)\n"
            "assert a == b and a != bound_c1(2, 39)\n"
            "assert a.normalized() == b\n"
            "c = bound_c(2, 40)\n"
            "assert c == bound_c(2, 40) and c.normalized() == c\n"
            "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=10,
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


def test_equality_is_structural():
    E, num = ConstantExpr, ConstantExpr.integer
    big = E.power(num(2), E.power(num(2), num(4000)))
    a = E.add(big, E.mul(num(3), big))
    b = E.add(E.power(num(2), E.power(num(2), num(4000))),
              E.mul(num(3), big))
    assert a == b and hash(a) == hash(b)
    assert a != E.add(big, E.mul(num(5), big))
    assert a != E.mul(big, E.mul(num(3), big))
    assert bound_c(3, 5) == bound_c(3, 5)
    assert bound_c(3, 5) != bound_c(3, 4)
    assert len({bound_c1(2, k) for k in range(2, 12)} | {bound_c1(2, 5)}) == 10
