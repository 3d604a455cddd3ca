"""Exact multivariate polynomials, truncated series, and Sturm root counts."""

import json
import random

import pytest

from intervalence import (
    MultiPoly,
    SeriesT,
    all_roots_real_negative,
    divided_difference,
    sturm_sequence,
)

from helpers import Z, sturm_negative_roots


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


@pytest.mark.parametrize("e", ["2", -1, 2.0, True], ids=["str", "negative", "float", "bool"])
def test_coefficient_rejects_bad_exponents(e):
    with pytest.raises(ValueError, match="bad exponent"):
        P(("x",), {(2,): 5}).coefficient({"x": e})


def test_construction_rejects_non_integer_coefficient():
    with pytest.raises(ValueError, match="non-integer coefficient 1.5"):
        MultiPoly(("z",), {(1,): 1.5})


X_PLUS_ONE = MultiPoly.variable(("x", "y"), "x") + 1


@pytest.mark.parametrize("build", [
    lambda: MultiPoly(("a", "a")),
    lambda: MultiPoly.zero(("a", "a")),
    lambda: MultiPoly.constant(("a", "a"), 3),
    lambda: X_PLUS_ONE.substitute({"x": 1, "y": 2}, ("a", "a")),
], ids=["init", "zero", "constant", "substitute"])
def test_universe_names_each_variable_once(build):
    with pytest.raises(ValueError, match=r"duplicate variable in universe \('a', 'a'\)"):
        build()


def test_scalar_coercion_and_equality():
    one = MultiPoly.constant(("u", "v"), 1)
    assert one + 0 == one
    assert one - 1 == MultiPoly.constant(("u", "v"), 0)
    assert P(("u",), {(1,): 2}) == P(("u",), {(1,): 2})
    assert P(("u",), {(1,): 2}) != P(("u",), {(1,): 3})


def test_equality_with_bool_is_false():
    # bool is not an integer constant here; comparing must not raise
    x = MultiPoly.variable(("x",), "x")
    one = MultiPoly.one(("x",))
    assert not x == True  # noqa: E712
    assert x != True  # noqa: E712
    assert one != True and one == 1  # noqa: E712
    assert True not in [x, one] and False not in [x, one]
    with pytest.raises(ValueError, match="not in list"):
        [x, one].index(True)


def test_constants_hash_as_their_int():
    # a constant equals its int, so a set or dict must find one by the other
    for vars in ((), ("x",), ("u", "v")):
        for c in (0, 3, -2):
            p = MultiPoly.constant(vars, c)
            assert p == c and hash(p) == hash(c)
            assert len({p, c}) == 1 and {c: "a"}.get(p) == "a"
    assert {0: "zero"}.get(MultiPoly.zero(("x",))) == "zero"
    # equal non-constant polynomials still share a hash
    x = MultiPoly.variable(("x", "y"), "x")
    assert hash(x + 1) == hash(MultiPoly(("x", "y"), {(1, 0): 1, (0, 0): 1}))
    # so two constants are equal by value across universes, and equality
    # stays transitive through their int
    a, b = MultiPoly.constant(("x",), 3), MultiPoly.constant(("y",), 3)
    assert a == b and hash(a) == hash(b)
    assert len({3, a, b}) == len({a, b, 3}) == 1
    assert MultiPoly.zero(()) == MultiPoly.zero(("u", "v"))
    assert a != MultiPoly.constant(("y",), 4)
    # non-constant polynomials still need equal universes
    assert MultiPoly.variable(("x",), "x") != MultiPoly.variable(("x", "y"), "x")
    assert a != MultiPoly.variable(("y",), "y") and MultiPoly.variable(("y",), "y") != a


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


def test_permute_vars():
    swapped = P(("x", "y"), {(2, 1): 7}).permute_vars({"x": "y", "y": "x"})
    assert swapped.terms == {(1, 2): 7}


def test_is_symmetric():
    swap = {"x": "y", "y": "x"}
    sym = P(("x", "y"), {(1, 0): 1, (0, 1): 1, (1, 1): 4})
    assert sym.is_symmetric(swap)
    assert not P(("x", "y"), {(1, 0): 1}).is_symmetric(swap)


def test_support():
    p = P(("x", "y"), {(2, 1): 1, (0, 3): -1})
    assert p.support(("x",)) == {(0,), (2,)}
    assert p.support() == {(2, 1), (0, 3)}


def test_exact_div_and_coefficient():
    p = P(("x", "y"), {(2, 1): 6, (1, 1): 4})
    q = p.exact_div("x")
    assert q == P(("x", "y"), {(1, 1): 6, (0, 1): 4})
    with pytest.raises(ValueError):
        q.exact_div("x")
    assert p.coefficient({"x": 2, "y": 1}) == 6
    assert p.coefficient({"x": 5}) == 0


@pytest.mark.parametrize("op", [
    lambda p: p.coefficient({"z": 1}),
    lambda p: p.exact_div("z"),
    lambda p: p.support(("x", "z")),
    lambda p: divided_difference(p, p, "z"),
    lambda p: MultiPoly.monomial(p.vars, {"z": 1}),
    lambda p: p.substitute({"z": 1}),
    lambda p: p.permute_vars({"z": "x"}),
    lambda p: p.is_symmetric({"z": "x"}),
], ids=["coefficient", "exact_div", "support", "divided_difference", "monomial",
        "substitute", "permute_vars", "is_symmetric"])
def test_coefficient_names_unknown_variable(op):
    p = P(("x", "y"), {(2, 1): 6})
    with pytest.raises(ValueError, match=r"'z'.*\('x', 'y'\)"):
        op(p)


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


@pytest.mark.parametrize("op, error, match", [
    (lambda: SeriesT(("u",), 3) + 1, TypeError, None),
    (lambda: SeriesT(("u",), 3) - 1, TypeError, None),
    (lambda: SeriesT(("u",), 3) * 1.5, TypeError, None),
    (lambda: 1.5 * SeriesT(("u",), 3), TypeError, None),
    (lambda: SeriesT(("u",), True), ValueError, "True"),
    (lambda: MultiPoly.variable(("x",), "x").substitute({"x": 1.5}), TypeError, "'x'"),
], ids=["series_add", "series_sub", "series_mul", "series_rmul", "series_bool_order",
        "substitute_float"])
def test_series_layer_rejects_foreign_operands(op, error, match):
    with pytest.raises(error, match=match):
        op()


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
        q = p.substitute({"u": 1})
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
    assert json.loads(json.dumps(p.to_json())) == [
        {"coeff": 7, "exp": {}}, {"coeff": -3, "exp": {"x": 2, "ybar": 1}}]


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


def random_series(rng, N):
    """Random series over (u, v) with a nonzero t^0 coefficient; each higher
    order is zero about a third of the time."""
    first = random_poly(rng)
    while first.is_zero():
        first = random_poly(rng)
    rest = [MultiPoly.zero(first.vars) if rng.random() < 0.3 else random_poly(rng)
            for _ in range(N - 1)]
    return SeriesT(first.vars, N, [first] + rest)


def test_series_product_matches_double_loop():
    rng = random.Random(20261018)
    for N in range(1, 7):
        for _ in range(15):
            f, g = random_series(rng, N), random_series(rng, N)
            expected = [MultiPoly.zero(f.vars)] * N
            for i in range(N):
                for j in range(N - i):
                    expected[i + j] = expected[i + j] + f.coeffs[i] * g.coeffs[j]
            assert (f * g).coeffs == tuple(expected)


def test_series_substitute_and_constant_values():
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), 3, (u, u * u, u + 1))
    g = f.substitute({"u": 1})
    assert g.constant_values() == [1, 1, 2]


def test_series_json_round_trip():
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), 2, (u, u * u))
    assert json.loads(json.dumps(f.to_json())) == {
        "N": 2, "coeffs": [[{"coeff": 1, "exp": {"u": 1}}], [{"coeff": 1, "exp": {"u": 2}}]]}


def test_series_str_labels_orders():
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), 2, (MultiPoly.constant(("u",), 1), u))
    text = str(f)
    assert "[t^0] 1" in text and "[t^1] u" in text


# ------------------------------------------------------------- Sturm chains

def mono(*roots):
    """Monic integer polynomial with the given roots, as a ``MultiPoly`` in z."""
    p = MultiPoly.one(("z",))
    for r in roots:
        p = p * (Z - r)
    return p


@pytest.mark.parametrize("call", [sturm_sequence, all_roots_real_negative],
                         ids=["sturm_sequence", "all_roots_real_negative"])
def test_sturm_entry_points_reject_bad_input(call):
    with pytest.raises(ValueError, match=r"universe \('x', 'y'\)"):
        call(P(("x", "y"), {(1, 0): 1, (0, 0): 1}))
    with pytest.raises(ValueError, match=r"universe \(\)"):
        call(MultiPoly.constant((), 3))
    with pytest.raises(TypeError, match="MultiPoly"):
        call([5, 7, 1])
    with pytest.raises(ValueError, match="zero polynomial"):
        call(MultiPoly.zero(("z",)))


def test_sturm_sequence_sign_changes():
    seq = sturm_sequence(Z**2 + 7 * Z + 5)
    assert seq[0] == Z**2 + 7 * Z + 5
    assert sturm_negative_roots(Z**2 + 7 * Z + 5) == 2
    assert sturm_negative_roots(Z**2 + 1) == 0
    assert sturm_negative_roots(mono(-1, -1, -2)) == 2  # distinct roots


@pytest.mark.parametrize(
    "poly,expected",
    [
        (Z**2 + 7 * Z + 5, True),  # roots (-7 ± sqrt(29))/2
        (Z**2 + 1, False),  # imaginary pair
        (mono(-1, -2, -3, -4, -5), True),
        (mono(-1) * (Z**2 + 1), False),  # one real root, two imaginary
        (mono(-2, -2, -3), True),  # multiple root still counts
        (Z**2 - 1, False),  # a positive root
        (Z, False),  # root at zero is not negative
        (MultiPoly.constant(("z",), 3), True),  # nonzero constant: vacuous
    ],
)
def test_all_roots_real_negative(poly, expected):
    assert all_roots_real_negative(poly) is expected


def test_all_roots_real_negative_rejects_zero():
    with pytest.raises(ValueError):
        all_roots_real_negative(MultiPoly.zero(("z",)))


def test_all_roots_real_negative_random_products():
    rng = random.Random(4242)
    for _ in range(30):
        roots = [-rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        assert all_roots_real_negative(mono(*roots))
        # Injecting an irreducible quadratic factor must flip the verdict.
        spoiled = mono(*roots) * (Z**2 + rng.randint(1, 5))
        assert not all_roots_real_negative(spoiled)
