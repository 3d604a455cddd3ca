"""Property tests for the ring operations, substitution and renaming,
divided differences, the Sturm code and the tree text codec (test-only
``hypothesis``)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from intervalence import (MultiPoly, all_roots_real_negative, decode,  # noqa: E402
                          divided_difference, encode)

from helpers import sturm_negative_roots  # noqa: E402

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
@given(polys(VARS), polys(VARS), polys(VARS))
def test_ring_axioms(p, q, r):
    zero, one = MultiPoly.zero(VARS), MultiPoly.one(VARS)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert p - p == zero and p - q == p + (-q)


@bounded
@given(polys(VARS))
def test_divided_difference_times_u_minus_one_round_trips(p):
    u_minus_1 = MultiPoly.variable(VARS, "u") - 1
    at_one = p.substitute({"u": 1})
    d = divided_difference(p, at_one, "u")
    assert d * u_minus_1 == p - at_one
    assert divided_difference(p * u_minus_1, MultiPoly.zero(VARS), "u") == p


@bounded
@given(st.lists(st.integers(1, 12), max_size=7), st.integers(-4, 4).filter(bool))
def test_negative_root_count_of_linear_factors(roots, scale):
    z = MultiPoly.variable(("z",), "z")
    f = MultiPoly.constant(("z",), scale)
    for r in roots:
        f = f * (z + r)
    assert all_roots_real_negative(f)
    assert sturm_negative_roots(f) == len(set(roots))


trees = st.recursive(st.none(), lambda sub: st.tuples(sub, sub), max_leaves=30)


@bounded
@given(trees)
def test_decode_inverts_encode(t):
    assert decode(encode(t)) == t
