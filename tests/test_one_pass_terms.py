"""Each term derived once: the bound recurrence in one pass, printed by
label, and the progression fit in one pass over its sequence.

The references below are the term-by-term recursion (c1 rebuilt for
every k) and the period-by-period search that the one-pass versions
replace; both are kept here verbatim in behaviour, as oracles.
"""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import rittkit
from rittkit import ConstantExpr, bound_c, bound_c1
from rittkit.cli import run_command
from rittkit.dml import Progression, progression_decompose

from conftest import rng_for

SRC = str(Path(rittkit.__file__).resolve().parent.parent)
LABEL = re.compile(r"c1?\(\d+,\d+\)")


# -- references -------------------------------------------------------------

def reference_c1(d, n, trace):
    cur = ConstantExpr.mul(ConstantExpr.integer(2),
                           ConstantExpr.power(ConstantExpr.integer(d),
                                              ConstantExpr.integer(4)))
    trace.append((f"c1({d},2)", cur))
    for k in range(3, n + 1):
        expo = ConstantExpr.mul(ConstantExpr.integer(4), cur)
        cur = ConstantExpr.mul(
            cur, ConstantExpr.mul(ConstantExpr.integer(2),
                                  ConstantExpr.power(ConstantExpr.integer(d),
                                                     expo)))
        trace.append((f"c1({d},{k})", cur))
    return cur


def reference_c(d, n, trace):
    cur = ConstantExpr.integer(1)
    trace.append((f"c({d},1)", cur))
    for k in range(2, n + 1):
        c1 = reference_c1(d, k, trace)
        left = ConstantExpr.power(cur, ConstantExpr.integer(k - 1))
        right = ConstantExpr.half(
            ConstantExpr.power(ConstantExpr.integer(d), c1))
        cur = ConstantExpr.maximum(left, right)
        trace.append((f"c({d},{k})", cur))
    return cur


def reference_decompose(S, horizon):
    S = set(S)
    bits = [1 if n in S else 0 for n in range(horizon + 1)]
    best = None
    for per in range(1, horizon // 3 + 1):
        tail = 0
        for i in range(horizon - per, -1, -1):
            if bits[i] != bits[i + per]:
                tail = i + 1
                break
        if tail > horizon // 3 or tail + per > horizon:
            continue
        progs = [Progression(n, 0) for n in sorted(S) if n < tail]
        for r in range(tail, tail + per):
            if bits[r]:
                progs.append(Progression(r, per))
        progs.sort(key=lambda q: (q.a, q.b))
        key = (len(progs), tuple((q.a, q.b) for q in progs))
        if best is None or key < best[0]:
            best = (key, progs)
    return None if best is None else best[1]


def first_of_each_label(trace):
    seen = {}
    for label, term in trace:
        seen.setdefault(label, term)
    return list(seen.items())


def cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(argv)
    return code, buf.getvalue()


def cli_limited(argv, limit_s=10):
    """The CLI in a subprocess; the test fails if it runs past limit_s."""
    return subprocess.run([sys.executable, "-m", "rittkit.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=limit_s, capture_output=True, text=True)


# -- the bound recurrence -----------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5, 14])
@pytest.mark.parametrize("n", range(1, 7))
def test_trace_lists_each_term_once_with_the_recursion_values(d, n):
    got, ref = [], []
    value = bound_c(d, n, got)
    reference_c(d, n, ref)
    ref = first_of_each_label(ref)
    assert [label for label, _ in got] == [label for label, _ in ref]
    for (_, a), (_, b) in zip(got, ref):
        assert str(a.normalized()) == str(b.normalized())
        assert str(a) == str(b)
        assert a.is_exact() == b.is_exact()
    assert value is got[-1][1]


@pytest.mark.parametrize("d", [2, 3, 14])
@pytest.mark.parametrize("n", range(2, 7))
def test_c1_trace_matches_the_recursion(d, n):
    got, ref = [], []
    value = bound_c1(d, n, got)
    reference_c1(d, n, ref)
    assert [label for label, _ in got] == [label for label, _ in ref]
    for (_, a), (_, b) in zip(got, ref):
        assert str(a.normalized()) == str(b.normalized())
    assert str(value) == str(ref[-1][1])


def test_trace_argument_is_optional_and_extended():
    trace = [("earlier", ConstantExpr.integer(7))]
    assert str(bound_c(2, 2, trace)) == "2147483648"
    assert [label for label, _ in trace] == [
        "earlier", "c(2,1)", "c1(2,2)", "c(2,2)"]
    assert str(bound_c1(3, 2)) == "162"


def expand(text, printed):
    """text with every label replaced by the full form of its term."""
    return LABEL.sub(lambda m: expand(printed[m.group(0)], printed), text)


@pytest.mark.parametrize("command", ["bound-c", "bound-c1"])
@pytest.mark.parametrize("d, n", [(2, 5), (3, 5), (3, 6), (14, 4), (20, 5)])
def test_printing_by_label_only_abbreviates(command, d, n):
    code, out = cli([command, str(d), str(n)])
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "trace: "
    printed = dict(line[4:].split(" = ", 1) for line in lines[4:])
    assert len(printed) == len(lines) - 4   # each label listed once
    ref = []
    val = (reference_c if command == "bound-c" else reference_c1)(d, n, ref)
    for label, term in first_of_each_label(ref):
        assert expand(printed[label], printed) == str(term)
    assert expand(lines[1][7:], printed) == str(val)
    assert lines[2] == f"exact: {'true' if val.is_exact() else 'false'}"


def test_a_later_term_names_the_earlier_one():
    _, out = cli(["bound-c", "3", "5"])
    assert "  - c1(3,5) = (c1(3,4) * (2 * (3)^((4 * c1(3,4)))))\n" in out
    assert out.splitlines()[1] == "value: max((c(3,4))^(4), ((3)^(c1(3,5)))/2)"


def reference_output(command, d, n):
    ref = []
    val = (reference_c if command == "bound-c" else reference_c1)(d, n, ref)
    return "".join([f"command: {command}\nvalue: {val}\n",
                    f"exact: {'true' if val.is_exact() else 'false'}\n",
                    "trace: \n", *(f"  - {label} = {term}\n"
                                   for label, term in ref)])


@pytest.mark.parametrize("d", [2, 3, 4, 7, 13, 20, 100])
def test_bound_c_2_prints_the_recursion_bytes(d):
    assert cli(["bound-c", str(d), "2"]) == (0, reference_output(
        "bound-c", d, 2))


@pytest.mark.parametrize("d", range(2, 14))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_small_c1_prints_the_recursion_bytes(d, n):
    # c1(d,3) is exact for d <= 13, so no symbolic term is named by label
    assert cli(["bound-c1", str(d), str(n)]) == (0, reference_output(
        "bound-c1", d, n))


@pytest.mark.parametrize("argv", [["bound-c", "2", "40"],
                                  ["bound-c1", "2", "40"]])
def test_forty_terms_end_in_seconds(argv):
    # the term-by-term recursion printed 80 MB in 9 s at n = 20 and did
    # not finish at n = 40
    out = cli_limited(argv)
    assert out.returncode == 0
    assert len(out.stdout) < 20_000
    labels = [line.split(" = ")[0] for line in out.stdout.splitlines()[4:]]
    assert len(labels) == len(set(labels)) == (79 if argv[0] == "bound-c"
                                                else 39)


# -- the progression fit --------------------------------------------------------

def test_long_horizon_ends_in_seconds():
    # the period-by-period search is quadratic in the horizon: 1.5 s at
    # 10^4, so minutes here
    out = cli_limited(["progressions", "--set", "1,2", "--horizon", "200000"])
    assert out.returncode == 0
    assert out.stdout == ("command: progressions\nprogressions: 2\n"
                          "  - {1 + 0k}\n  - {2 + 0k}\n")


def _seeded_set(rng):
    horizon = rng.randint(0, 60)
    if rng.random() < 0.3:
        density = rng.random()
        S = {n for n in range(horizon + 1) if rng.random() < density}
        return S, horizon
    per = rng.randint(1, horizon // 2 + 1)
    tail = rng.randint(0, horizon // 2 + 1)
    residues = {r for r in range(per) if rng.random() < 0.5}
    S = {n for n in range(horizon + 1)
         if (n >= tail and (n - tail) % per in residues)
         or (n < tail and rng.random() < 0.3)}
    if horizon and rng.random() < 0.2:
        S ^= {rng.randint(0, horizon)}
    return S, horizon


def test_one_pass_fit_matches_the_period_search():
    rng = rng_for("one-pass-progressions")
    fits = 0
    for _ in range(1500):
        S, horizon = _seeded_set(rng)
        want = reference_decompose(S, horizon)
        assert progression_decompose(S, horizon) == want, (S, horizon)
        fits += want is not None
    assert fits > 300   # the sets exercise the fits, not just refusals


@pytest.mark.parametrize("S, horizon", [
    (set(), 0), ({0}, 0), (set(), 9), ({0, 1, 2, 3}, 3), ({5}, 5),
    ({0, 2, 4, 6, 8, 9}, 9), ({1, 4, 7, 10, 13, 16, 19}, 19),
])
def test_edge_sets_match_the_period_search(S, horizon):
    assert progression_decompose(S, horizon) == reference_decompose(
        S, horizon)
