"""Sturm, squarefree, gcd and exact-division code against sympy (test-only)."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from intervalence import MultiPoly, squarefree_part  # noqa: E402
from intervalence.polynomial import (  # noqa: E402
    count_negative_real_roots,
    exact_quotient,
    polynomial_gcd,
)

from helpers import Z  # noqa: E402

SYMBOL = sympy.Symbol("z")


def to_sympy(f):
    return sympy.Poly.from_dict(f.terms, SYMBOL)


def normalised(g):
    """The sympy polynomial ``g`` as a ``MultiPoly`` in z, primitive with a
    positive leading term."""
    g = g.primitive()[1]
    g = -g if g.LC() < 0 else g
    return MultiPoly(("z",), {exp: int(c) for exp, c in g.terms()})


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


def test_count_negative_real_roots_matches_sympy():
    for f in random_polys(20261018, 150):
        if f.coefficient({}) == 0:
            continue
        assert count_negative_real_roots(f) == to_sympy(f).count_roots(-sympy.oo, 0), f


def test_squarefree_part_matches_sympy():
    for f in random_polys(31, 150):
        got = squarefree_part(f)
        want = normalised(to_sympy(f).sqf_part())
        assert got in (want, -want), f


def test_polynomial_gcd_matches_sympy():
    polys = random_polys(47, 240)
    for f, g, shared in zip(polys[::3], polys[1::3], polys[2::3]):
        f, g = f * shared, g * shared
        want = normalised(sympy.gcd(to_sympy(f), to_sympy(g)))
        assert polynomial_gcd(f, g) == want, (f, g)


def test_exact_quotient_round_trip_and_rejection():
    polys = random_polys(53, 200)
    for f, g in zip(polys[::2], polys[1::2]):
        assert exact_quotient(f * g, g) == f
        # g has degree >= 1, so it leaves the remainder 1
        with pytest.raises(ValueError):
            exact_quotient(f * g + 1, g)
    with pytest.raises(ValueError):
        exact_quotient(Z + 1, 2 * Z + 1)
    with pytest.raises(ValueError):
        exact_quotient(MultiPoly.constant(("z",), 1), MultiPoly.constant(("z",), 2))
