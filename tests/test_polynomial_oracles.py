"""The Sturm code against sympy (test-only)."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from intervalence import MultiPoly, all_roots_real_negative  # noqa: E402

from helpers import sturm_negative_roots  # noqa: E402

SYMBOL = sympy.Symbol("z")


def to_sympy(f):
    return sympy.Poly.from_dict(f.terms, SYMBOL)


def random_factor(rng):
    degree = rng.randint(1, 3)
    coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.choice([1, -1, 2, 3])]
    return MultiPoly(("z",), {(i,): c for i, c in enumerate(coeffs)})


def random_poly(rng):
    """Product of up to four random factors, each squared or cubed now and
    then, so that repeated roots are common; a ``MultiPoly`` in z."""
    f = MultiPoly.constant(("z",), rng.choice([1, -1, 2, -3]))
    for _ in range(rng.randint(1, 4)):
        factor = random_factor(rng)
        f = f * factor
        for _ in range(rng.choice([0, 0, 1, 2])):
            f = f * factor
    return f


def random_polys(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_poly(rng)
        if not f.is_zero():
            out.append(f)
    return out


def test_sturm_core_matches_sympy():
    verdicts = set()
    for f in random_polys(20261018, 150):
        g = to_sympy(f)
        # every root real and negative, counted with multiplicity
        roots = g.real_roots()
        want = len(roots) == g.degree() and all(r < 0 for r in roots)
        assert all_roots_real_negative(f) is want, f
        verdicts.add(want)
        if f.coefficient({}) != 0:
            assert sturm_negative_roots(f) == g.count_roots(-sympy.oo, 0), f
    assert verdicts == {True, False}
