"""Finite posets, valence polynomials, and the interval construction.

The pentagon poset used throughout (bottom 0, chains 0<1<3<4 and 0<2<4) has
the interval weight polynomial derived by hand from its 13 intervals; it
doubles as an oracle because the same poset arises as the size-3 rotation
lattice.
"""

import json
import random

import pytest

from intervalence import FinitePoset, MultiPoly, are_isomorphic
from intervalence.poset import INTERVAL_VARS, VALENCE_VARS

from helpers import interval_degree_histogram, random_poset

PENTAGON = FinitePoset(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])

# 13 intervals classified by (dx, dy, dybar, dxbar), summed by hand
PENTAGON_INTERVAL_POLY = MultiPoly(
    INTERVAL_VARS,
    {
        (0, 2, 0, 0): 1,  # (0,0)
        (0, 1, 1, 0): 3,  # (1,1), (2,2), (3,3)
        (0, 0, 2, 0): 1,  # (4,4)
        (1, 1, 0, 1): 3,  # (0,1), (0,2), (0,3)
        (2, 0, 0, 2): 1,  # (0,4)
        (1, 1, 1, 1): 1,  # (1,3)
        (1, 0, 1, 1): 3,  # (1,4), (2,4), (3,4)
    },
)


# ------------------------------------------------------------- construction

def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        FinitePoset(2, [(0, 2)])  # endpoint out of range
    with pytest.raises(ValueError):
        FinitePoset(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        FinitePoset(2, [(0, 1), (1, 0)])  # cycle
    with pytest.raises(ValueError):
        FinitePoset(3, [(0, 1), (1, 2), (0, 2)])  # not a Hasse diagram


def test_constructor_dedupes_and_sorts_covers():
    p = FinitePoset(3, [(1, 2), (0, 1), (1, 2)])
    assert p.covers == ((0, 1), (1, 2))


def test_order_and_covers_on_pentagon():
    p = PENTAGON
    assert p.leq(0, 4) and p.leq(1, 3) and p.leq(1, 4)
    assert not p.leq(1, 2) and not p.leq(3, 2)
    assert p.less(0, 1) and not p.less(1, 1)
    assert p.upper_covers(0) == (1, 2)
    assert p.lower_covers(4) == (2, 3)
    assert p.out_degree(0) == 2 and p.in_degree(0) == 0
    assert p.minimal_elements() == [0]
    assert p.maximal_elements() == [4]
    assert p.up_set(1) == [1, 3, 4]


def test_topological_order_is_linear_extension():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poset(rng)
        pos = {v: i for i, v in enumerate(p.topological_order())}
        assert sorted(pos) == list(range(p.m))
        assert all(pos[a] < pos[b] for a, b in p.covers)


def test_json_round_trip_and_equality():
    blob = json.dumps(PENTAGON.to_json())
    assert FinitePoset.from_json(json.loads(blob)) == PENTAGON


# ----------------------------------------------------------- dual / product

def test_dual_reverses_covers():
    d = PENTAGON.dual()
    assert set(d.covers) == {(1, 0), (2, 0), (3, 1), (4, 3), (4, 2)}
    assert d.dual() == PENTAGON


def test_dual_reverses_order_randomly():
    rng = random.Random(23)
    for _ in range(25):
        p = random_poset(rng)
        d = p.dual()
        for a in range(p.m):
            for b in range(p.m):
                assert p.leq(a, b) == d.leq(b, a)


def test_product_of_two_chains_is_a_grid():
    chain = FinitePoset(2, [(0, 1)])
    grid = chain.product(chain)
    assert grid.m == 4
    # index (p, q) -> 2p + q: bottom 0, top 3, middle antichain {1, 2}
    assert set(grid.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_product_order_is_componentwise():
    rng = random.Random(31)
    for _ in range(10):
        p = random_poset(rng, max_m=4)
        q = random_poset(rng, max_m=4)
        pq = p.product(q)
        for a1 in range(p.m):
            for a2 in range(q.m):
                for b1 in range(p.m):
                    for b2 in range(q.m):
                        expect = p.leq(a1, b1) and q.leq(a2, b2)
                        assert pq.leq(a1 * q.m + a2, b1 * q.m + b2) == expect


# -------------------------------------------------------- valence polynomial

def test_valence_polynomial_pentagon():
    assert PENTAGON.valence_polynomial() == MultiPoly(
        VALENCE_VARS, {(2, 0): 1, (1, 1): 3, (0, 2): 1}
    )


def test_valence_polynomial_singleton_and_antichain():
    assert FinitePoset(1, []).valence_polynomial() == MultiPoly(VALENCE_VARS, {(0, 0): 1})
    assert FinitePoset(3, []).valence_polynomial() == MultiPoly(VALENCE_VARS, {(0, 0): 3})


def test_valence_duality_and_multiplicativity():
    swap = {"a": "abar", "abar": "a"}
    rng = random.Random(47)
    for _ in range(30):
        p = random_poset(rng)
        assert p.dual().valence_polynomial() == p.valence_polynomial().permute_vars(swap)
    for _ in range(15):
        p = random_poset(rng, max_m=4)
        q = random_poset(rng, max_m=4)
        assert p.product(q).valence_polynomial() == p.valence_polynomial() * q.valence_polynomial()


def test_valence_total_count():
    rng = random.Random(53)
    for _ in range(20):
        p = random_poset(rng)
        assert sum(p.valence_polynomial().terms.values()) == p.m


# ------------------------------------------------------------ interval poset

def test_intervals_of_pentagon():
    ivs = PENTAGON.intervals()
    assert len(ivs) == 13
    assert ivs == sorted(ivs)
    assert (1, 2) not in ivs and (0, 4) in ivs


def test_interval_poset_of_two_chain_is_three_chain():
    chain = FinitePoset(2, [(0, 1)])
    ip, ivs = chain.interval_poset()
    assert ivs == [(0, 0), (0, 1), (1, 1)]
    assert ip.covers == ((0, 1), (1, 2))


def test_interval_poset_order_is_componentwise():
    rng = random.Random(61)
    for _ in range(20):
        p = random_poset(rng, max_m=5)
        ip, ivs = p.interval_poset()
        for i, (a1, b1) in enumerate(ivs):
            for j, (a2, b2) in enumerate(ivs):
                assert ip.leq(i, j) == (p.leq(a1, a2) and p.leq(b1, b2))


def test_interval_degrees_validation():
    with pytest.raises(ValueError):
        PENTAGON.interval_degrees((1, 2))


def test_interval_degrees_examples():
    assert PENTAGON.interval_degrees((0, 0)) == (0, 2, 0, 0)
    assert PENTAGON.interval_degrees((0, 4)) == (2, 0, 0, 2)
    assert PENTAGON.interval_degrees((1, 3)) == (1, 1, 1, 1)
    assert PENTAGON.interval_degrees((2, 4)) == (1, 0, 1, 1)


def test_degree_zero_characterizations():
    # dx = 0 iff the interval is a point iff dxbar = 0; dy = 0 iff the top
    # is maximal; dybar = 0 iff the bottom is minimal
    rng = random.Random(67)
    for _ in range(25):
        p = random_poset(rng)
        for lo, hi in p.intervals():
            dx, dy, dybar, dxbar = p.interval_degrees((lo, hi))
            assert (dx == 0) == (lo == hi) == (dxbar == 0)
            assert (dy == 0) == (hi in p.maximal_elements())
            assert (dybar == 0) == (lo in p.minimal_elements())


# --------------------------------------------------- interval weight identities

def test_interval_valence_polynomial_two_chain():
    chain = FinitePoset(2, [(0, 1)])
    expected = MultiPoly(INTERVAL_VARS, {(0, 1, 0, 0): 1, (1, 0, 0, 1): 1, (0, 0, 1, 0): 1})
    assert chain.interval_valence_polynomial() == expected


def test_interval_valence_polynomial_pentagon():
    assert PENTAGON.interval_valence_polynomial() == PENTAGON_INTERVAL_POLY


def test_interval_kernel_matches_per_interval_degrees():
    rng = random.Random(97)
    posets = [random_poset(rng, max_m=9) for _ in range(40)]
    posets += [FinitePoset(0, []), FinitePoset(1, []), PENTAGON]
    for p in posets:
        assert p.interval_valence_polynomial() == interval_degree_histogram(p)


def test_interval_kernel_degrees_wider_than_four_bits():
    # bottom 0, atoms 1..20, top 21: degree 20 needs five bits per field
    wide = FinitePoset(22, [(0, a) for a in range(1, 21)] + [(a, 21) for a in range(1, 21)])
    chain = FinitePoset(2, [(0, 1)])
    for p in (wide, wide.product(chain)):
        assert p.interval_valence_polynomial() == interval_degree_histogram(p)
    assert wide.interval_valence_polynomial().coefficient(
        {"x": 20, "xbar": 20}) == 1


def test_interval_valence_duality():
    swap = {"x": "xbar", "xbar": "x", "y": "ybar", "ybar": "y"}
    rng = random.Random(71)
    for _ in range(25):
        p = random_poset(rng)
        dual_poly = p.dual().interval_valence_polynomial()
        assert dual_poly == p.interval_valence_polynomial().permute_vars(swap)


def test_interval_valence_multiplicativity():
    rng = random.Random(73)
    for _ in range(15):
        p = random_poset(rng, max_m=4)
        q = random_poset(rng, max_m=4)
        prod_poly = p.product(q).interval_valence_polynomial()
        assert prod_poly == p.interval_valence_polynomial() * q.interval_valence_polynomial()


def test_interval_valence_specializes_to_interval_poset_valence():
    # DD_P(a, a, abar, abar) = D_{Int(P)}(a, abar)
    rng = random.Random(79)
    binding = {"x": MultiPoly.variable(VALENCE_VARS, "a"),
               "y": MultiPoly.variable(VALENCE_VARS, "a"),
               "ybar": MultiPoly.variable(VALENCE_VARS, "abar"),
               "xbar": MultiPoly.variable(VALENCE_VARS, "abar")}
    for _ in range(25):
        p = random_poset(rng)
        ip, _ = p.interval_poset()
        lhs = p.interval_valence_polynomial().substitute(binding, vars=VALENCE_VARS)
        assert lhs == ip.valence_polynomial()


def test_interval_poset_dual_commutes():
    # Int(dual P) is isomorphic to dual of Int(P)
    rng = random.Random(83)
    for _ in range(15):
        p = random_poset(rng, max_m=5)
        a, _ = p.dual().interval_poset()
        b, _ = p.interval_poset()
        assert are_isomorphic(a, b.dual())


# -------------------------------------------------------------- isomorphism

def test_are_isomorphic_positive():
    chain3 = FinitePoset(3, [(0, 1), (1, 2)])
    relabel = FinitePoset(3, [(2, 0), (0, 1)])
    assert are_isomorphic(chain3, relabel)
    assert are_isomorphic(PENTAGON, PENTAGON.dual())


def test_are_isomorphic_negative():
    chain3 = FinitePoset(3, [(0, 1), (1, 2)])
    vee = FinitePoset(3, [(0, 1), (0, 2)])
    assert not are_isomorphic(chain3, vee)
    assert not are_isomorphic(chain3, FinitePoset(4, [(0, 1), (1, 2), (2, 3)]))


def test_are_isomorphic_random_relabellings():
    rng = random.Random(89)
    for _ in range(15):
        p = random_poset(rng, max_m=5)
        perm = list(range(p.m))
        rng.shuffle(perm)
        q_covers = sorted((perm[a], perm[b]) for a, b in p.covers)
        q = FinitePoset(p.m, q_covers)
        assert are_isomorphic(p, q)
