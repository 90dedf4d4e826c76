"""Pinned outputs of classify and m_infinity, and a witness property.

The reports below were recorded before classify's witnesses and
m_infinity's commuting maps became in-field roots of one scale
polynomial.  Five degree-2 power maps whose leading coefficient is not a
rational times a root of unity are the exception: they used to report
"needs a field extension" and now carry their in-field witness.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittkit import (QQ, LinearPoly, Poly, chebyshev, classify, conjugate,
                     cyclotomic_field, m_infinity)
from rittkit.field import scalar_str
from rittkit.parser import parse_field, parse_poly

POWER_HINT = ("conjugacy to the power map needs a field extension",)
CHEB_HINT = ("conjugacy to a Chebyshev form needs a field extension",)

# (field, f) -> (is_cyclic, is_dihedral, conj_to_power,
#                conj_to_pm_chebyshev as (sign, witness), disintegrated, hints)
CLASSIFY = [
    (('Q', 'x^2'), (True, False, 'x', None, False, ())),
    (('Q', 'x^2 - 2'), (True, False, None, ('1', 'x'), False, ())),
    (('Q', 'x^2 + 1'), (True, False, None, None, True, ())),
    (('Q', '3*(x + 1)^2 - 1'), (True, False, '3*x + 3', None, False, ())),
    (('Q', 'x^3'), (True, False, 'x', None, False, ())),
    (('Q', '2*x^3'), (True, False, None, None, False, POWER_HINT)),
    (('Q', 'x^3 - 3*x'), (False, True, None, ('1', 'x'), False, ())),
    (('Q', '-x^3 + 3*x'), (False, True, None, ('-1', 'x'), False, ())),
    (('Q', '2*x^3 - 3*x'), (False, True, None, None, False, CHEB_HINT)),
    (('Q', 'x^3 + x'), (False, True, None, None, True, ())),
    (('Q', 'x^4 - 4*x^2 + 2'), (False, True, None, ('1', 'x'), False, ())),
    (('Q', '-x^4 + 4*x^2 - 2'), (False, True, None, ('1', '-x'), False, ())),
    (('Q', '(x + 1)^4 - 1'), (True, False, 'x + 1', None, False, ())),
    (('Q', 'x^4 + x^3'), (False, False, None, None, True, ())),
    (('Q', 'x^5 - 5*x^3 + 5*x'), (False, True, None, ('1', 'x'), False, ())),
    (('Q', 'x^5 + x'), (False, False, None, None, True, ())),
    (('Q', '4*x^3 - 3*x + 1'), (False, True, None, None, True, ())),
    (('Q', '1/2*x^6 - 3'), (True, False, None, None, True, ())),
    (('Q(zeta 3)', 'z*x^2'), (True, False, 'z*x', None, False, ())),
    (('Q(zeta 3)', '(2 + z)*x^2'),
     (True, False, '(2 + z)*x', None, False, ())),
    (('Q(zeta 3)', 'z*x^3'), (True, False, '(1 + z)*x', None, False, ())),
    (('Q(zeta 3)', 'x^4 + x'), (False, False, None, None, True, ())),
    (('Q(zeta 3)', 'x^3 - 3*x + z'), (False, True, None, None, True, ())),
    (('Q(zeta 3)', '(z*x + 1)^4 - 4*(z*x + 1)^2 + 2'),
     (False, True, None, None, True, ())),
    (('Q(zeta 3)', '-3*x^3 + x'), (False, True, None, None, True, ())),
    (('Q(zeta 4)', '(1 + 2*z)*(x + 1)^2 - 1'),
     (True, False, '(1 + 2*z)*x + (1 + 2*z)', None, False, ())),
    (('Q(zeta 4)', '2*x^3'), (True, False, None, None, False, POWER_HINT)),
    (('Q(zeta 4)', '-x^3 - 3*x'),
     (False, True, None, ('1', 'z*x'), False, ())),
    (('Q(zeta 4)', 'z*x^5'), (True, False, None, None, False, POWER_HINT)),
    (('Q(zeta 4)', 'x^4 + 4*x^2 + 2'), (False, True, None, None, True, ())),
    (('Q(zeta 4)', 'x^2 + z'), (True, False, None, None, True, ())),
    (('Q(zeta 5)', '(1 + z)*x^2'),
     (True, False, '(1 + z)*x', None, False, ())),
    (('Q(zeta 5)', '(1 + z)*(x + 1)^2 - 1'),
     (True, False, '(1 + z)*x + (1 + z)', None, False, ())),
    (('Q(zeta 5)', 'z*x^3 + x'), (False, True, None, None, True, ())),
    (('Q(zeta 5)', '5*x^5'), (True, False, None, None, False, POWER_HINT)),
    (('Q(zeta 5)', 'x^6 - 6*x^4 + 9*x^2 - 2'),
     (False, True, None, ('1', 'x'), False, ())),
    (('Q(zeta 8)', '(1 + z + z^2)*x^2'),
     (True, False, '(1 + z + z^2)*x', None, False, ())),
    (('Q(zeta 8)', 'z^2*x^3 + 3*x'),
     (False, True, None, ('-1', 'z^3*x'), False, ())),
    (('Q(zeta 8)', 'x^4 + z*x^2'), (False, True, None, None, True, ())),
    (('Q(zeta 8)', 'x^8'), (True, False, 'x', None, False, ())),
    (('Q(zeta 8)', 'z*x^4 - 4*z^3*x^2 + 2*z^5'),
     (False, True, None, ('1', 'z^3*x'), False, ())),
]

# (field, f, iter_bound) -> (elements, generator, stable_at)
M_INFINITY = [
    (('Q(zeta 3)', 'x^4 + x', 2),
     (('x', '(-1 - z)*x', 'z*x'), '(-1 - z)*x', 1)),
    (('Q(zeta 3)', 'x^3', 3), (('x', '-x'), '-x', 2)),
    (('Q(zeta 3)', 'x^2 + 1', 2), (('x',), 'x', 1)),
    (('Q(zeta 3)', 'x^7 + x', 2),
     (('x', '-x', '(-1 - z)*x', '-z*x', 'z*x', '(1 + z)*x'), '-z*x', 1)),
    (('Q(zeta 4)', 'x^3 + x', 3), (('x', '-x'), '-x', 2)),
    (('Q(zeta 4)', 'x^5 + x', 2), (('x', '-x', '-z*x', 'z*x'), '-z*x', 1)),
    (('Q(zeta 4)', '(x + 1)^3 + x + 1', 2), (('x',), 'x', 1)),
    (('Q(zeta 4)', 'x^4 + x^2', 2), (('x',), 'x', 1)),
    (('Q(zeta 8)', 'x^5 + x', 2),
     (('x', '-x', '-z^2*x', 'z^2*x'), '-z^2*x', 1)),
    (('Q(zeta 8)', 'x^9 + x', 1),
     (('x', '-x', '-z*x', '-z^2*x', '-z^3*x', 'z^3*x', 'z^2*x', 'z*x'),
      '-z*x', 1)),
    (('Q(zeta 8)', 'x^3', 3),
     (('x', '-x', '-z*x', '-z^2*x', '-z^3*x', 'z^3*x', 'z^2*x', 'z*x'),
      '-z*x', 2)),
    (('Q(zeta 8)', '(z*x + 1)^3 + z*x', 2), (('x',), 'x', 1)),
]


def _str(ell):
    return None if ell is None else str(ell.to_poly())


@pytest.mark.parametrize("key, expected", CLASSIFY,
                         ids=["|".join(k) for k, _ in CLASSIFY])
def test_classify_pinned(key, expected):
    field, f = key
    rep = classify(parse_poly(f, parse_field(field)))
    ch = rep.conj_to_pm_chebyshev
    got = (rep.is_cyclic, rep.is_dihedral, _str(rep.conj_to_power),
           None if ch is None else (scalar_str(ch[0]), _str(ch[1])),
           rep.disintegrated, rep.hints)
    assert got == expected


@pytest.mark.parametrize("key, expected", M_INFINITY,
                         ids=["|".join(map(str, k)) for k, _ in M_INFINITY])
def test_m_infinity_pinned(key, expected):
    field, f, bound = key
    grp = m_infinity(parse_poly(f, parse_field(field)), bound)
    got = (tuple(map(_str, grp.elements)), _str(grp.generator),
           grp.stable_at)
    assert got == expected


FIELDS = [QQ] + [cyclotomic_field(m) for m in (3, 4, 5, 8)]


@st.composite
def conjugated_targets(draw):
    """(f, degree, sign or None for x^d) with f = ell o target o ell^-1.

    The scale of ell is any nonzero field element, so it need not be a
    rational times a root of unity.
    """
    K = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(2, 6))
    sign = draw(st.sampled_from([None, 1, -1]))

    def element():
        return sum((K.zeta() ** i * draw(st.integers(-3, 3))
                    for i in range(1, K.degree)),
                   K.coerce(draw(st.integers(-3, 3))))

    a = draw(st.builds(element).filter(bool))
    target = (Poly.monomial(K, d) if sign is None
              else chebyshev(d, K).scale(sign))
    return conjugate(LinearPoly.make(K, a, element()), target), d, sign


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=conjugated_targets())
def test_classify_witness_of_conjugated_target(case):
    f, d, sign = case
    K = f.field
    rep = classify(f)
    assert not rep.disintegrated
    if rep.conj_to_power is not None:
        assert conjugate(rep.conj_to_power, f) == Poly.monomial(K, d)
    if rep.conj_to_pm_chebyshev is not None:
        s, ell = rep.conj_to_pm_chebyshev
        assert conjugate(ell, f) == chebyshev(d, K).scale(s)
    # the scale equation is linear here, so the witness is in the field
    if sign is None and d == 2:
        assert rep.conj_to_power is not None
    if sign is not None and d % 2 == 0:
        assert rep.conj_to_pm_chebyshev is not None
