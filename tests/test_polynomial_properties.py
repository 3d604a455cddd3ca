"""Property tests for substitution and renaming (test-only ``hypothesis``)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from intervalence import MultiPoly  # noqa: E402

VARS = ("u", "v", "x")
TARGET = ("a", "b")

bounded = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def polys(vars, max_terms=5, max_exp=3, coeffs=st.integers(-5, 5), min_terms=0):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms).map(
        lambda terms: MultiPoly(vars, terms))


ints = st.integers(-3, 3)
single_terms = polys(TARGET, max_terms=1, max_exp=2, coeffs=ints, min_terms=1)
multi_terms = polys(TARGET, max_terms=3, max_exp=2, coeffs=ints.filter(bool), min_terms=2)


@st.composite
def bindings(draw, kind):
    """Bindings of every variable of ``VARS`` into ``TARGET``.  "int" and
    "single" take the single-term path of ``substitute``; "multi" gives one
    variable a multi-term image and takes the general path."""
    simple = {"int": ints, "single": single_terms, "multi": st.one_of(ints, single_terms)}[kind]
    images = {name: draw(simple) for name in VARS}
    if kind == "multi":
        images[draw(st.sampled_from(VARS))] = draw(multi_terms)
    return images


@pytest.mark.parametrize("kind", ["int", "single", "multi"])
def test_substitution_is_a_ring_homomorphism(kind):
    @bounded
    @given(polys(VARS), polys(VARS), bindings(kind), st.integers(-4, 4))
    def check(p, q, images, c):
        def s(f):
            return f.substitute(images, TARGET)
        assert s(p + q) == s(p) + s(q)
        assert s(p * q) == s(p) * s(q)
        assert s(c * p) == c * s(p)
        assert s(MultiPoly.one(VARS)) == MultiPoly.one(TARGET)
    check()


@bounded
@given(polys(VARS), st.permutations(VARS))
def test_permute_vars_then_inverse_is_identity(p, perm):
    forward = dict(zip(VARS, perm))
    inverse = {new: old for old, new in forward.items()}
    assert p.permute_vars(forward).permute_vars(inverse) == p


@bounded
@given(polys(VARS), st.permutations(VARS + ("s", "t")))
def test_with_universe_wider_and_back_is_identity(p, wider):
    widened = p.with_universe(wider)
    assert widened.vars == tuple(wider)
    assert len(widened.terms) == len(p.terms)
    assert widened.with_universe(VARS) == p
