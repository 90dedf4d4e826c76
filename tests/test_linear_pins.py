"""Pinned outputs of the linear-map solves.

Each linear symmetry group and each linear equivalence below is compared,
as printed, with the result recorded before the two solves were merged
into one scale polynomial.  A change in an element, a companion, the
generator, the extension hint or the order in which scales are tried
shows up here.
"""

import io
from contextlib import redirect_stdout
from math import lcm

import pytest

from rittkit import (QQ, compose, cyclotomic_field, equivalence_witness,
                     gamma_group)
from rittkit.cli import run_command
from rittkit.parser import parse_poly

FIELDS = {"Q": QQ, "Q(zeta 3)": cyclotomic_field(3),
          "Q(zeta 4)": cyclotomic_field(4), "Q(zeta 5)": cyclotomic_field(5)}
ZETA_ORDER = {"Q": 1, "Q(zeta 3)": 3, "Q(zeta 4)": 4, "Q(zeta 5)": 5}

# (field, A) -> (kind, elements, companions, generator, extension_hint)
GAMMA = [
    (('Q', 'x^3 + x'), ('Finite', ('x', '-x'), ('x', '-x'), '-x', None)),
    (('Q', 'x^3 + x^2'),
     ('Finite', ('x', '-x - 2/3'), ('x', '-x + 4/27'), '-x - 2/3', None)),
    (('Q', 'x^4 + x'), ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q', 'x^5 + x'), ('Finite', ('x', '-x'), ('x', '-x'), '-x', 4)),
    (('Q', 'x^6 + x'), ('Finite', ('x',), ('x',), 'x', 5)),
    (('Q', 'x^4 - 4*x^2 + 2'),
     ('Finite', ('x', '-x'), ('x', 'x'), '-x', None)),
    (('Q', 'x^6 + x^3'), ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q', 'x^2 + 1'), ('Infinite', (), (), None, None)),
    (('Q', '(x + 1)^3 - 1'), ('Infinite', (), (), None, None)),
    (('Q', '(x + 1)^5 + x'),
     ('Finite', ('x', '-x - 2'), ('x', '-x - 2'), '-x - 2', 4)),
    (('Q', '(x + 1)^7 + x + 1'),
     ('Finite', ('x', '-x - 2'), ('x', '-x'), '-x - 2', 6)),
    (('Q', '(x - 2)^6 + x^3 - 6*x^2 + 12*x'),
     ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q(zeta 3)', 'x^3 + x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', None)),
    (('Q(zeta 3)', 'x^3 + x^2'),
     ('Finite', ('x', '-x - 2/3'), ('x', '-x + 4/27'), '-x - 2/3', None)),
    (('Q(zeta 3)', 'x^4 + x'),
     ('Finite',
      ('x', '(-1 - z)*x', 'z*x'),
      ('x', '(-1 - z)*x', 'z*x'),
      '(-1 - z)*x',
      None)),
    (('Q(zeta 3)', 'x^5 + x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', 4)),
    (('Q(zeta 3)', 'x^6 + x'), ('Finite', ('x',), ('x',), 'x', 5)),
    (('Q(zeta 3)', 'x^4 - 4*x^2 + 2'),
     ('Finite', ('x', '-x'), ('x', 'x'), '-x', None)),
    (('Q(zeta 3)', 'x^6 + x^3'),
     ('Finite',
      ('x', '(-1 - z)*x', 'z*x'),
      ('x', 'x', 'x'),
      '(-1 - z)*x',
      None)),
    (('Q(zeta 3)', 'x^2 + 1'), ('Infinite', (), (), None, None)),
    (('Q(zeta 3)', '(x + 1)^3 - 1'), ('Infinite', (), (), None, None)),
    (('Q(zeta 3)', 'x^4 + z*x^2'),
     ('Finite', ('x', '-x'), ('x', 'x'), '-x', None)),
    (('Q(zeta 3)', 'x^3 + z*x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', None)),
    (('Q(zeta 3)', '(x + 1)^5 + x'),
     ('Finite', ('x', '-x - 2'), ('x', '-x - 2'), '-x - 2', 4)),
    (('Q(zeta 3)', '(x + 1)^7 + x + 1'),
     ('Finite',
      ('x',
       '-x - 2',
       '(-1 - z)*x + (-2 - z)',
       '-z*x + (-1 - z)',
       'z*x + (-1 + z)',
       '(1 + z)*x + z'),
      ('x', '-x', '(-1 - z)*x', '-z*x', 'z*x', '(1 + z)*x'),
      '-z*x + (-1 - z)',
      None)),
    (('Q(zeta 3)', '(x - 2)^6 + x^3 - 6*x^2 + 12*x'),
     ('Finite',
      ('x', '(-1 - z)*x + (4 + 2*z)', 'z*x + (2 - 2*z)'),
      ('x', 'x', 'x'),
      '(-1 - z)*x + (4 + 2*z)',
      None)),
    (('Q(zeta 4)', 'x^3 + x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', None)),
    (('Q(zeta 4)', 'x^3 + x^2'),
     ('Finite', ('x', '-x - 2/3'), ('x', '-x + 4/27'), '-x - 2/3', None)),
    (('Q(zeta 4)', 'x^4 + x'), ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q(zeta 4)', 'x^5 + x'),
     ('Finite',
      ('x', '-x', '-z*x', 'z*x'),
      ('x', '-x', '-z*x', 'z*x'),
      '-z*x',
      None)),
    (('Q(zeta 4)', 'x^6 + x'), ('Finite', ('x',), ('x',), 'x', 5)),
    (('Q(zeta 4)', 'x^4 - 4*x^2 + 2'),
     ('Finite', ('x', '-x'), ('x', 'x'), '-x', None)),
    (('Q(zeta 4)', 'x^6 + x^3'), ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q(zeta 4)', 'x^2 + 1'), ('Infinite', (), (), None, None)),
    (('Q(zeta 4)', '(x + 1)^3 - 1'), ('Infinite', (), (), None, None)),
    (('Q(zeta 4)', 'x^4 + z*x^2'),
     ('Finite', ('x', '-x'), ('x', 'x'), '-x', None)),
    (('Q(zeta 4)', 'x^3 + z*x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', None)),
    (('Q(zeta 4)', '(x + 1)^5 + x'),
     ('Finite',
      ('x', '-x - 2', '-z*x + (-1 - z)', 'z*x + (-1 + z)'),
      ('x', '-x - 2', '-z*x + (-1 - z)', 'z*x + (-1 + z)'),
      '-z*x + (-1 - z)',
      None)),
    (('Q(zeta 4)', '(x + 1)^7 + x + 1'),
     ('Finite', ('x', '-x - 2'), ('x', '-x'), '-x - 2', 6)),
    (('Q(zeta 4)', '(x - 2)^6 + x^3 - 6*x^2 + 12*x'),
     ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q(zeta 5)', 'x^3 + x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', None)),
    (('Q(zeta 5)', 'x^3 + x^2'),
     ('Finite', ('x', '-x - 2/3'), ('x', '-x + 4/27'), '-x - 2/3', None)),
    (('Q(zeta 5)', 'x^4 + x'), ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q(zeta 5)', 'x^5 + x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', 4)),
    (('Q(zeta 5)', 'x^6 + x'),
     ('Finite',
      ('x', '(-1 - z - z^2 - z^3)*x', 'z^3*x', 'z^2*x', 'z*x'),
      ('x', '(-1 - z - z^2 - z^3)*x', 'z^3*x', 'z^2*x', 'z*x'),
      '(-1 - z - z^2 - z^3)*x',
      None)),
    (('Q(zeta 5)', 'x^4 - 4*x^2 + 2'),
     ('Finite', ('x', '-x'), ('x', 'x'), '-x', None)),
    (('Q(zeta 5)', 'x^6 + x^3'), ('Finite', ('x',), ('x',), 'x', 3)),
    (('Q(zeta 5)', 'x^2 + 1'), ('Infinite', (), (), None, None)),
    (('Q(zeta 5)', '(x + 1)^3 - 1'), ('Infinite', (), (), None, None)),
    (('Q(zeta 5)', 'x^4 + z*x^2'),
     ('Finite', ('x', '-x'), ('x', 'x'), '-x', None)),
    (('Q(zeta 5)', 'x^3 + z*x'),
     ('Finite', ('x', '-x'), ('x', '-x'), '-x', None)),
    (('Q(zeta 5)', '(x + 1)^5 + x'),
     ('Finite', ('x', '-x - 2'), ('x', '-x - 2'), '-x - 2', 4)),
    (('Q(zeta 5)', '(x + 1)^7 + x + 1'),
     ('Finite', ('x', '-x - 2'), ('x', '-x'), '-x - 2', 6)),
    (('Q(zeta 5)', '(x - 2)^6 + x^3 - 6*x^2 + 12*x'),
     ('Finite', ('x',), ('x',), 'x', 3)),
]

# (field, f, g) -> (L1, L2) with L2 o f o L1 = g, or None.  Degree 1,
# degree 2 (every scale passes), cyclic, absent and zeta-scaled pairs.
EQUIVALENCE = [
    (('Q', '2*x + 1', '3*x - 1'), ('x', '3/2*x - 5/2')),
    (('Q', 'x^2 + 1', '4*x^2 + 4*x + 3'), ('x + 1/2', '4*x - 2')),
    (('Q', 'x^2 + 1', '-x^2 + 2'), ('x', '-x + 3')),
    (('Q', 'x^3', '2*(x + 1)^3 + 5'), ('x + 1', '2*x + 5')),
    (('Q', 'x^4 + x', 'x^4 + x^2'), None),
    (('Q', 'x^3 + x', 'x^3 + 2'), None),
    (('Q', 'x^5 + x^2 + 1', '3*(2*x - 1)^5 + 3*(2*x - 1)^2 + 4'),
     ('2*x - 1', '3*x + 1')),
    (('Q(zeta 3)', '2*x + 1', '3*x - 1'), ('x', '3/2*x - 5/2')),
    (('Q(zeta 3)', 'z*x + 1', 'x - z'), ('x', '(-1 - z)*x + 1')),
    (('Q(zeta 3)', 'x^2 + 1', '4*x^2 + 4*x + 3'), ('x + 1/2', '4*x - 2')),
    (('Q(zeta 3)', 'x^2 + 1', '-x^2 + 2'), ('x', '-x + 3')),
    (('Q(zeta 3)', 'x^2 + z', 'x^2 + 2*x'), ('x + 1', 'x + (-1 - z)')),
    (('Q(zeta 3)', 'x^3', '2*(x + 1)^3 + 5'), ('x + 1', '2*x + 5')),
    (('Q(zeta 3)', 'x^4', '(z*x + 1)^4'), ('x + (-1 - z)', 'z*x')),
    (('Q(zeta 3)', 'x^4 + x', 'x^4 + x^2'), None),
    (('Q(zeta 3)', 'x^3 + x', 'x^3 + 2'), None),
    (('Q(zeta 3)', 'x^4 + x', '(z*x)^4 + z*x'), ('x', 'z*x')),
    (('Q(zeta 3)', 'x^5 + x', '(z*x + 1)^5 + z*x + 1 - 7'),
     ('-z*x - 1', '-x - 7')),
    (('Q(zeta 3)', 'x^3 + x', '(z*x)^3 + z*x'), ('-z*x', '-x')),
    (('Q(zeta 3)', 'x^5 + x^2 + 1', '3*(2*x - 1)^5 + 3*(2*x - 1)^2 + 4'),
     ('2*x - 1', '3*x + 1')),
    (('Q(zeta 4)', '2*x + 1', '3*x - 1'), ('x', '3/2*x - 5/2')),
    (('Q(zeta 4)', 'z*x + 1', 'x - z'), ('x', '-z*x')),
    (('Q(zeta 4)', 'x^2 + 1', '4*x^2 + 4*x + 3'), ('x + 1/2', '4*x - 2')),
    (('Q(zeta 4)', 'x^2 + 1', '-x^2 + 2'), ('x', '-x + 3')),
    (('Q(zeta 4)', 'x^2 + z', 'x^2 + 2*x'), ('x + 1', 'x + (-1 - z)')),
    (('Q(zeta 4)', 'x^3', '2*(x + 1)^3 + 5'), ('x + 1', '2*x + 5')),
    (('Q(zeta 4)', 'x^4', '(z*x + 1)^4'), ('x - z', 'x')),
    (('Q(zeta 4)', 'x^4 + x', 'x^4 + x^2'), None),
    (('Q(zeta 4)', 'x^3 + x', 'x^3 + 2'), None),
    (('Q(zeta 4)', 'x^4 + x', '(z*x)^4 + z*x'), ('z*x', 'x')),
    (('Q(zeta 4)', 'x^5 + x', '(z*x + 1)^5 + z*x + 1 - 7'),
     ('-x + z', '-z*x - 7')),
    (('Q(zeta 4)', 'x^3 + x', '(z*x)^3 + z*x'), ('-z*x', '-x')),
    (('Q(zeta 4)', 'x^5 + x^2 + 1', '3*(2*x - 1)^5 + 3*(2*x - 1)^2 + 4'),
     ('2*x - 1', '3*x + 1')),
    (('Q(zeta 5)', '2*x + 1', '3*x - 1'), ('x', '3/2*x - 5/2')),
    (('Q(zeta 5)', 'z*x + 1', 'x - z'),
     ('x', '(-1 - z - z^2 - z^3)*x + (1 + z^2 + z^3)')),
    (('Q(zeta 5)', 'x^2 + 1', '4*x^2 + 4*x + 3'), ('x + 1/2', '4*x - 2')),
    (('Q(zeta 5)', 'x^2 + 1', '-x^2 + 2'), ('x', '-x + 3')),
    (('Q(zeta 5)', 'x^2 + z', 'x^2 + 2*x'), ('x + 1', 'x + (-1 - z)')),
    (('Q(zeta 5)', 'x^3', '2*(x + 1)^3 + 5'), ('x + 1', '2*x + 5')),
    (('Q(zeta 5)', 'x^4', '(z*x + 1)^4'),
     ('x + (-1 - z - z^2 - z^3)', '(-1 - z - z^2 - z^3)*x')),
    (('Q(zeta 5)', 'x^4 + x', 'x^4 + x^2'), None),
    (('Q(zeta 5)', 'x^3 + x', 'x^3 + 2'), None),
    (('Q(zeta 5)', 'x^4 + x', '(z*x)^4 + z*x'), ('z*x', 'x')),
    (('Q(zeta 5)', 'x^5 + x', '(z*x + 1)^5 + z*x + 1 - 7'),
     ('-z*x - 1', '-x - 7')),
    (('Q(zeta 5)', 'x^3 + x', '(z*x)^3 + z*x'), ('-z*x', '-x')),
    (('Q(zeta 5)', 'x^5 + x^2 + 1', '3*(2*x - 1)^5 + 3*(2*x - 1)^2 + 4'),
     ('2*x - 1', '3*x + 1')),
]

GAMMA_Z3_STDOUT = (
    'command: gamma\n'
    'kind: Finite\n'
    'order: 3\n'
    'elements: \n'
    '  - x (companion x)\n'
    '  - (-1 - z)*x (companion (-1 - z)*x)\n'
    '  - z*x (companion z*x)\n'
    'generator: (-1 - z)*x\n'
    'extension_hint: none\n')


def _str(ell):
    return None if ell is None else str(ell)


@pytest.mark.parametrize("key, expected", GAMMA,
                         ids=["|".join(k) for k, _ in GAMMA])
def test_gamma_group_pinned(key, expected):
    field, A = key
    grp = gamma_group(parse_poly(A, FIELDS[field]))
    got = (grp.kind, tuple(map(str, grp.elements)),
           tuple(map(str, grp.companions)), _str(grp.generator),
           grp.extension_hint)
    assert got == expected


HINTED = [(key, expected) for key, expected in GAMMA
          if expected[4] is not None]


@pytest.mark.parametrize("key, expected", HINTED,
                         ids=["|".join(k) for k, _ in HINTED])
def test_extension_hint_adds_elements(key, expected):
    # a hint m over Q(zeta k) names roots of unity that Q(zeta lcm(k, m))
    # holds, so the group there is strictly larger
    field, A = key
    bigger = cyclotomic_field(lcm(ZETA_ORDER[field], expected[4]))
    grp = gamma_group(parse_poly(A, bigger))
    assert len(grp.elements) > len(expected[1])


@pytest.mark.parametrize("key, expected", EQUIVALENCE,
                         ids=["|".join(k) for k, _ in EQUIVALENCE])
def test_equivalence_witness_pinned(key, expected):
    field, f, g = key
    K = FIELDS[field]
    f, g = parse_poly(f, K), parse_poly(g, K)
    wit = equivalence_witness(f, g)
    if wit is not None:
        L1, L2 = wit
        assert compose(L2.to_poly(), compose(f, L1.to_poly())) == g
        wit = (str(L1), str(L2))
    assert wit == expected


def test_gamma_cli_cyclotomic_pinned():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(["gamma", "--field", "Q(zeta 3)",
                            "--f", "x^4 + x"])
    assert code == 0
    assert buf.getvalue() == GAMMA_Z3_STDOUT
