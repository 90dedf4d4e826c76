"""One implementation per job.

Square and multiply is `field.power`, which every power in the library
calls; the diagonal curves of `ms_diagonal_curves` take their periods from
the graph pushes of `curve_period`, and both periodic-graph searches emit
through `msclass._add_periodic_graph`; the CLI document spells absent
values, booleans and item lists in `Doc` alone.
"""

import pytest

import rittkit.msclass as msclass
from rittkit import (QQ, commutes_with_iterate, cyclotomic_field,
                     ms_diagonal_curves, parse_poly, periodic_graph_search)
from rittkit.cli import Doc
from rittkit.field import power
from rittkit.parser import _Parser


def counting(mul):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)
    return counted, calls


@pytest.mark.parametrize("e", range(0, 40))
def test_power_skips_the_last_square(e):
    mul, calls = counting(lambda a, b: a * b)
    assert power(3, e, 1, mul) == 3 ** e
    squares = e.bit_length() - 1 if e else 0
    assert len(calls) == bin(e).count("1") + squares


def test_parser_powers_charge_each_product_in_bit_order():
    # 5 = 101b: 1*b, b*b, b^2*b^2, then b*b^4; no square after the top bit
    parser = _Parser("(x + 1)^5", QQ)
    seen = []
    product = parser.product

    def recording(a, b):
        seen.append((a.deg_x, b.deg_x, a is b))
        return product(a, b)
    parser.product = recording
    out = parser.parse()
    assert seen == [(0, 1, False), (1, 1, True), (2, 2, True), (1, 4, False)]
    assert out.rows[0] == parse_poly("(x + 1)*(x + 1)^4", QQ)
    assert parser.work > 0


def test_doc_spells_values_once():
    doc = Doc()
    for key, value in (("a", None), ("b", True), ("c", False), ("d", 0),
                       ("e", 1)):
        doc.add(key, value)
    doc.items("n", ["p", "q"])
    doc.items("h", [], head="")
    doc.fields(msclass.DiagonalCurve(g=None, curve=0, certificate=False),
               ("certificate", "curve"))
    assert doc.render() == ("a: absent\nb: true\nc: false\nd: 0\ne: 1\n"
                            "n: 2\n  - p\n  - q\nh: \ncertificate: false\n"
                            "curve: 0\n")


CENSUS = [("x^3 + x", 1, 9, 2), ("x^2 + 1", 1, 4, 2), ("x^5 + x^2", 3, 5, 2),
          ("x^3 + 2*x", 4, 3, 2), ("(x^2 + 1)^2 + 1", 1, 4, 2),
          ("x^3 + x", 1, 9, None), ("x^2 + 1", 1, 4, None),
          ("x^5 + x^2", 3, 5, None), ("x^3 + 2*x", 4, 3, None),
          ("(x^2 + 1)^2 + 1", 1, 4, None), ("x^3 + x", 1, 27, None),
          ("x^8 + x", 1, 3, None), ("((x^2+1)^2+1)^2+1", 1, 2, None)]


def field_of(m):
    return QQ if m == 1 else cyclotomic_field(m)


@pytest.mark.parametrize("f,m,cap,bound", CENSUS)
def test_diagonal_candidates_stay_on_the_graph_route(monkeypatch, f, m, cap,
                                                     bound):
    def no_push(G, f):
        raise AssertionError("a diagonal candidate left the graph route")
    monkeypatch.setattr(msclass, "_push_x", no_push)
    assert ms_diagonal_curves(parse_poly(f, field_of(m)), cap, bound)


@pytest.mark.parametrize("f,m,cap,bound", CENSUS[:5])
def test_diagonal_periods_are_the_least_commuting_iterates(f, m, cap, bound):
    f = parse_poly(f, field_of(m))
    for dc in ms_diagonal_curves(f, cap, bound):
        assert dc.certificate.period == commutes_with_iterate(f, dc.g, bound)
        assert dc.certificate.verify(f, f)


def test_both_searches_emit_through_one_helper(monkeypatch):
    f = parse_poly("x^3 + x", QQ)
    emitted = []
    add = msclass._add_periodic_graph

    def recording(found, h, orientation, *rest):
        emitted.append((h, orientation))
        add(found, h, orientation, *rest)
    monkeypatch.setattr(msclass, "_add_periodic_graph", recording)
    diagonal = ms_diagonal_curves(f, 3, 2)
    searched = periodic_graph_search(f, f, 3, 2)
    assert len(emitted) >= len(diagonal) + len(searched) > 0
    for out in (diagonal, searched):
        curves = [dc.curve for dc in out]
        assert len(set(curves)) == len(curves)
