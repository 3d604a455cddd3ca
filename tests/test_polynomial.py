"""Exact multivariate polynomials, truncated series, and Sturm root counts."""

import json
import random

import pytest

from intervalence import (
    MultiPoly,
    SeriesT,
    UniPoly,
    all_roots_real_negative,
    divided_difference,
    squarefree_part,
    sturm_sequence,
)
from intervalence.polynomial import count_negative_real_roots


def P(vars, terms):
    return MultiPoly(vars, terms)


def random_poly(rng, vars=("u", "v"), max_terms=5, max_exp=3, max_coef=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in vars)
        terms[exp] = rng.randint(-max_coef, max_coef)
    return MultiPoly(vars, terms)


# ---------------------------------------------------------------- MultiPoly

def test_construction_drops_zero_terms():
    p = P(("u",), {(2,): 1, (1,): 0})
    assert p.terms == {(2,): 1}
    assert P(("u",), {}).is_zero()


def test_construction_rejects_bad_exponents():
    with pytest.raises(ValueError):
        P(("u",), {(1, 2): 1})
    with pytest.raises(ValueError):
        P(("u",), {(-1,): 1})


def test_scalar_coercion_and_equality():
    one = MultiPoly.constant(("u", "v"), 1)
    assert one + 0 == one
    assert one - 1 == MultiPoly.constant(("u", "v"), 0)
    assert P(("u",), {(1,): 2}) == P(("u",), {(1,): 2})
    assert P(("u",), {(1,): 2}) != P(("u",), {(1,): 3})


def test_arithmetic_small_cases():
    u = MultiPoly.variable(("u", "v"), "u")
    v = MultiPoly.variable(("u", "v"), "v")
    assert (u + v) * (u - v) == u * u - v * v
    assert (u + 1) ** 3 == u**3 + 3 * u**2 + 3 * u + 1
    assert u * 0 == MultiPoly.constant(("u", "v"), 0)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(20260814)
    for _ in range(60):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == MultiPoly.constant(p.vars, 0)


def test_substitute_scalar_bindings():
    p = P(("x", "y"), {(2, 0): 1, (1, 1): 3, (0, 1): -2})
    q = p.substitute({"y": 1}, vars=("x",))
    assert q.vars == ("x",)
    assert q == P(("x",), {(2,): 1, (1,): 3, (0,): -2})
    # x = 2, y = 3: 4 + 18 - 6 = 16
    assert p.substitute({"x": 2, "y": 3}, vars=()) == MultiPoly.constant((), 16)


def test_substitute_polynomial_bindings():
    # x -> u+1 inside x^2 - 1 gives u^2 + 2u
    p = P(("x",), {(2,): 1, (0,): -1})
    u_plus_1 = P(("u",), {(1,): 1, (0,): 1})
    q = p.substitute({"x": u_plus_1}, vars=("u",))
    assert q == P(("u",), {(2,): 1, (1,): 2})


def test_substitute_matches_direct_evaluation():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng, vars=("u", "v", "x"))
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        direct = sum(
            coef * a**e[0] * b**e[1] * c**e[2] for e, coef in p.terms.items()
        )
        value = p.substitute({"u": a, "v": b, "x": c}, vars=()).coefficient({})
        assert value == direct


def test_with_universe_and_permute():
    p = P(("u",), {(2,): 5})
    q = p.with_universe(("t", "u", "v"))
    assert q.vars == ("t", "u", "v")
    assert q.terms == {(0, 2, 0): 5}
    with pytest.raises(ValueError):
        q.with_universe(("t",))  # drops a used variable
    swapped = P(("x", "y"), {(2, 1): 7}).permute_vars({"x": "y", "y": "x"})
    assert swapped.terms == {(1, 2): 7}


def test_is_symmetric():
    swap = {"x": "y", "y": "x"}
    sym = P(("x", "y"), {(1, 0): 1, (0, 1): 1, (1, 1): 4})
    assert sym.is_symmetric(swap)
    assert not P(("x", "y"), {(1, 0): 1}).is_symmetric(swap)


def test_support_and_degree_range():
    p = P(("x", "y"), {(2, 1): 1, (0, 3): -1})
    assert p.support(("x",)) == {(0,), (2,)}
    assert p.support() == {(2, 1), (0, 3)}
    assert p.degree_range(("y",)) == (1, 3)
    assert p.degree_range() == (3, 3)


def test_exact_div_and_coefficient():
    p = P(("x", "y"), {(2, 1): 6, (1, 1): 4})
    q = p.exact_div("x")
    assert q == P(("x", "y"), {(1, 1): 6, (0, 1): 4})
    with pytest.raises(ValueError):
        q.exact_div("x")
    assert p.coefficient({"x": 2, "y": 1}) == 6
    assert p.coefficient({"x": 5}) == 0


def test_coefficient_names_unknown_variable():
    p = P(("x", "y"), {(2, 1): 6})
    with pytest.raises(ValueError, match="'z'"):
        p.coefficient({"z": 1})


@pytest.mark.parametrize("op", [
    lambda p: p + 1.5,
    lambda p: 1.5 + p,
    lambda p: p - 1.5,
    lambda p: p * "a",
    lambda p: p * 1.5,
], ids=["add", "radd", "sub", "mul_str", "mul_float"])
def test_arithmetic_rejects_non_integer_scalars(op):
    with pytest.raises(TypeError):
        op(MultiPoly.variable(("u", "v"), "u"))


# ------------------------------------------------------- divided difference

def test_divided_difference_classic():
    # (u^2 - 1) / (u - 1) = u + 1
    p = P(("u",), {(2,): 1})
    q = MultiPoly.constant(("u",), 1)
    assert divided_difference(p, q, "u") == P(("u",), {(1,): 1, (0,): 1})


def test_divided_difference_second_order_weights():
    # (u^2 x + u ybar + u y - x - ybar - y)/(u - 1) = u x + x + ybar + y
    vars = ("u", "x", "y", "ybar")
    p = P(vars, {(2, 1, 0, 0): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1})
    q = P(vars, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 1, 0): 1})
    expected = P(vars, {(1, 1, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 1, 0): 1})
    assert divided_difference(p, q, "u") == expected


def test_divided_difference_zero_and_errors():
    p = P(("u",), {(1,): 3})
    assert divided_difference(p, p, "u").is_zero()
    with pytest.raises(ValueError):
        # u^2 - 2 is not divisible by u - 1
        divided_difference(P(("u",), {(2,): 1}), MultiPoly.constant(("u",), 2), "u")


def test_divided_difference_random_round_trip():
    rng = random.Random(99)
    u_minus_1 = P(("u", "v"), {(1, 0): 1, (0, 0): -1})
    for _ in range(40):
        p = random_poly(rng)
        q = p.substitute({"u": 1}).with_universe(("u", "v"))
        d = divided_difference(p, q, "u")
        assert d * u_minus_1 == p - q


# ------------------------------------------------------------------ display

def test_str_orders_by_total_degree_then_reversed_exponents():
    p = P(
        ("u", "v", "x", "y", "ybar"),
        {(2, 1, 1, 0, 0): 1, (1, 2, 0, 0, 1): 1, (1, 1, 0, 1, 0): 1},
    )
    assert str(p) == "u^2 v x + u v^2 ybar + u v y"


def test_str_constants_and_signs():
    assert str(MultiPoly.constant(("u",), 0)) == "0"
    assert str(P(("u",), {(1,): -1, (0,): 2})) == "-u + 2"
    assert str(P(("u",), {(2,): 1, (0,): -5})) == "u^2 - 5"


def test_json_round_trip():
    p = P(("x", "ybar"), {(2, 1): -3, (0, 0): 7})
    blob = json.dumps(p.to_json())
    assert MultiPoly.from_json(json.loads(blob), ("x", "ybar")) == p


# ------------------------------------------------------------------ SeriesT

def test_series_arithmetic_truncates():
    one = MultiPoly.constant(("u",), 1)
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), 3, (one, u, u * u))
    g = SeriesT(("u",), 3, (MultiPoly.constant(("u",), 0), one, one))
    h = f * g
    assert h.N == 3
    assert h.coeffs[0].is_zero()
    assert h.coeffs[1] == one
    assert h.coeffs[2] == one + u


def test_series_geometric_inverse():
    # (1 - t) * (1 + t + t^2 + ...) = 1 up to truncation
    one = MultiPoly.constant((), 1)
    zero = MultiPoly.constant((), 0)
    f = SeriesT((), 5, (one, -one, zero, zero, zero))
    g = SeriesT((), 5, (one, one, one, one, one))
    prod = f * g
    assert prod.coeffs[0] == one
    assert all(c.is_zero() for c in prod.coeffs[1:])


def test_series_substitute_and_constant_values():
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), 3, (u, u * u, u + 1))
    g = f.substitute({"u": 1})
    assert g.constant_values() == [1, 1, 2]


def test_series_json_round_trip():
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), 2, (u, u * u))
    blob = json.loads(json.dumps(f.to_json()))
    assert blob["N"] == 2
    assert SeriesT.from_json(blob, ("u",)) == f


def test_series_str_labels_orders():
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), 2, (MultiPoly.constant(("u",), 1), u))
    text = str(f)
    assert "[t^0] 1" in text and "[t^1] u" in text


# ------------------------------------------------------------------ UniPoly

def test_unipoly_basics():
    p = UniPoly((5, 7, 1))  # z^2 + 7z + 5
    assert p.degree() == 2
    assert p(0) == 5 and p(-1) == -1
    assert p.derivative() == UniPoly((7, 2))
    assert UniPoly((0, 0, 3)).trailing_zero_order() == 2
    assert UniPoly((0, 0, 3)).shift_down(2) == UniPoly((3,))


def test_unipoly_from_multipoly():
    p = P(("z",), {(2,): 1, (1,): 7, (0,): 5})
    assert UniPoly.from_multipoly(p) == UniPoly((5, 7, 1))
    with pytest.raises(ValueError):
        UniPoly.from_multipoly(P(("z", "w"), {(1, 1): 1}))


def mono(*roots):
    """Monic integer polynomial with the given roots."""
    p = UniPoly((1,))
    for r in roots:
        p = p * UniPoly((-r, 1))
    return p


def test_squarefree_part():
    p = mono(-1, -1, -2)  # (z+1)^2 (z+2)
    assert squarefree_part(p) == mono(-1, -2)


def test_sturm_sequence_sign_changes():
    seq = sturm_sequence(UniPoly((5, 7, 1)))
    assert seq[0] == UniPoly((5, 7, 1))
    assert count_negative_real_roots(UniPoly((5, 7, 1))) == 2
    assert count_negative_real_roots(UniPoly((1, 0, 1))) == 0  # z^2 + 1


@pytest.mark.parametrize(
    "poly,expected",
    [
        (UniPoly((5, 7, 1)), True),  # z^2 + 7z + 5: roots (-7 ± sqrt(29))/2
        (UniPoly((1, 0, 1)), False),  # z^2 + 1: imaginary pair
        (mono(-1, -2, -3, -4, -5), True),
        (mono(-1) * UniPoly((1, 0, 1)), False),  # one real root, two imaginary
        (mono(-2, -2, -3), True),  # multiple root still counts
        (UniPoly((-1, 0, 1)), False),  # z^2 - 1 has a positive root
        (UniPoly((0, 1)), False),  # root at zero is not negative
        (UniPoly((3,)), True),  # nonzero constant: vacuous
    ],
)
def test_all_roots_real_negative(poly, expected):
    assert all_roots_real_negative(poly) is expected


def test_all_roots_real_negative_rejects_zero():
    with pytest.raises(ValueError):
        all_roots_real_negative(UniPoly(()))


def test_all_roots_real_negative_random_products():
    rng = random.Random(4242)
    for _ in range(30):
        roots = [-rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        assert all_roots_real_negative(mono(*roots))
        # Injecting an irreducible quadratic factor must flip the verdict.
        spoiled = mono(*roots) * UniPoly((rng.randint(1, 5), 0, 1))
        assert not all_roots_real_negative(spoiled)
