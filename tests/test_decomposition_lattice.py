"""`complete_decompositions` reads every chain off one table of normalized
right factors (the lattice of their degrees).  It must give exactly the
chains of the plain recursion it replaced, copied here as the reference:
for each normalized right factor h that is indecomposable, recurse on
its left factor g."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from rittkit import (QQ, Poly, chebyshev, complete_decompositions, compose,
                     cyclotomic_field)
from rittkit.decompose import (DecompositionChain, _chain_sort_key,
                               _is_indecomposable, normalized_right_factor)

LATTICE = settings(derandomize=True, max_examples=30, deadline=None,
                   database=None)
Q3 = cyclotomic_field(3)


def recursive_decompositions(f: Poly) -> list:
    splits = [split for split in (normalized_right_factor(f, e)
                                  for e in range(2, f.degree)
                                  if f.degree % e == 0) if split]
    if not splits:
        return [DecompositionChain((f,))]
    chains = []
    for g, h in splits:
        if not _is_indecomposable(h):
            continue
        for sub in recursive_decompositions(g):
            chains.append(DecompositionChain(sub.factors + (h,)))
    chains.sort(key=_chain_sort_key)
    return chains


small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def scalars(draw, field):
    c = draw(small)
    if field is QQ:
        return c
    return field.coerce(c) + field.zeta() * draw(small)


@st.composite
def factors(draw, field, degree):
    """A factor of the given degree: random, a power map, a Chebyshev
    polynomial or x^r P(x^2), maybe under a linear change on the left.
    The structured ones make decompositions that are not unique."""
    x = Poly.x(field)
    kind = draw(st.sampled_from(["random", "power", "chebyshev", "xPxs"]))
    if kind == "power":
        p = x ** degree
    elif kind == "chebyshev":
        p = chebyshev(degree, field)
    elif kind == "xPxs" and degree % 2 == 0:
        p = x ** 2 * (x ** 2 + draw(scalars(field))) ** (degree // 2 - 1)
    elif kind == "xPxs":
        p = x * (x ** 2 + draw(scalars(field))) ** (degree // 2)
    else:
        cs = [draw(scalars(field)) for _ in range(degree)]
        p = Poly.make(field, cs + [1])
    if not draw(st.booleans()):
        return p
    a = draw(scalars(field))
    return p.scale(a if a else Fraction(1)) + draw(scalars(field))


@st.composite
def compositions(draw, field):
    degrees = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    f = Poly.x(field)
    for d in degrees:
        f = compose(f, draw(factors(field, d)))
    return f


@pytest.mark.parametrize("field", [QQ, Q3], ids=["Q", "Q(zeta 3)"])
def test_lattice_matches_recursion(field):
    @LATTICE
    @given(f=compositions(field))
    def check(f):
        chains = complete_decompositions(f)
        assert chains == recursive_decompositions(f)
        assert all(chain.verify(f) for chain in chains)

    check()


@pytest.mark.parametrize("f", [chebyshev(24), chebyshev(36), Poly.x() ** 24,
                               Poly.x() ** 30],
                         ids=["T24", "T36", "x^24", "x^30"])
def test_lattice_on_many_chains(f):
    chains = complete_decompositions(f)
    assert len(chains) > 1
    assert chains == recursive_decompositions(f)
