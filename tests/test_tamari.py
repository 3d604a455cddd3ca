"""Rotation lattices on binary trees and their interval statistics.

Size-3 oracle, with trees listed in encoding order:

    index 0  (((o o) o) o)   left comb, maximum,  canopy LRRR
    index 1  ((o (o o)) o)                        canopy LLRR
    index 2  ((o o) (o o))                        canopy LRLR
    index 3  (o ((o o) o))                        canopy LLRR
    index 4  (o (o (o o)))   right comb, minimum, canopy LLLR

Covers: 4<2, 4<3, 3<1, 2<0, 1<0 (the pentagon).
"""

import random

import pytest

from intervalence import (
    Mode,
    MultiPoly,
    SystemConfig,
    canopy,
    composition,
    decode,
    encode,
    enumerate_trees,
    interval_canopy_word,
    interval_statistics,
    interval_valence_polynomial,
    is_synchronous,
    iter_interval_statistics,
    left_border_factors,
    reverse,
    rotation_covers,
    tamari_lattice,
)
from intervalence.poset import INTERVAL_VARS, VALENCE_VARS
from intervalence.tamari import (
    CSV_HEADER,
    IntervalStat,
    graft,
    is_composition_coarser,
    is_indecomposable,
    left_comb,
    right_comb,
    size,
    stats_to_csv,
    valence_polynomial,
)

from helpers import catalan, interval_count, interval_degree_histogram, synchronous_count

LEAF = None


# ------------------------------------------------------------------- trees

def test_tree_counts_are_catalan():
    for n in range(9):
        assert len(enumerate_trees(n)) == catalan(n)


def test_encode_decode_round_trip():
    for n in range(6):
        for t in enumerate_trees(n):
            assert decode(encode(t)) == t
    assert decode("o") is None
    assert decode("(o (o o))") == (None, (None, None))


@pytest.mark.parametrize("text", ["", "o o", "(o", "(o o o)", "(o)", "x", "(o o))"])
def test_decode_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        decode(text)


def test_combs_and_size():
    assert right_comb(3) == (None, (None, (None, None)))
    assert left_comb(3) == (((None, None), None), None)
    assert size(right_comb(5)) == 5
    assert size(None) == 0


def test_reverse_is_an_involution_exchanging_combs():
    assert reverse(right_comb(4)) == left_comb(4)
    for t in enumerate_trees(5):
        assert reverse(reverse(t)) == t


def test_rotation_covers_small_cases():
    assert rotation_covers(None) == []
    assert rotation_covers((None, None)) == []
    # (A (B C)) -> ((A B) C) at the root
    t = (None, (None, None))
    assert rotation_covers(t) == [((None, None), None)]
    assert rotation_covers(left_comb(4)) == []
    assert len(rotation_covers(right_comb(4))) == 3


# ----------------------------------------------------------------- lattices

def test_lattice_sizes_and_extremes():
    for n in range(1, 7):
        lat = tamari_lattice(n)
        assert len(lat.trees) == catalan(n)
        assert lat.trees[lat.minimum()] == right_comb(n)
        assert lat.trees[lat.maximum()] == left_comb(n)
        assert lat.poset.minimal_elements() == [lat.minimum()]
        assert lat.poset.maximal_elements() == [lat.maximum()]


def test_size_three_lattice_is_the_pentagon():
    lat = tamari_lattice(3)
    assert [encode(t) for t in lat.trees] == [
        "(((o o) o) o)",
        "((o (o o)) o)",
        "((o o) (o o))",
        "(o ((o o) o))",
        "(o (o (o o)))",
    ]
    assert set(lat.poset.covers) == {(4, 2), (4, 3), (3, 1), (2, 0), (1, 0)}
    assert lat.minimum() == 4 and lat.maximum() == 0


def test_as_index_accepts_trees_and_validates():
    lat = tamari_lattice(3)
    assert lat.as_index((None, (None, (None, None)))) == 4
    assert lat.as_index(2) == 2
    with pytest.raises(ValueError):
        lat.as_index((None, None))  # wrong size
    with pytest.raises(ValueError):
        lat.as_index(5)


def test_minimum_is_below_everything():
    lat = tamari_lattice(5)
    bot, top = lat.minimum(), lat.maximum()
    for i in range(len(lat.trees)):
        assert lat.poset.leq(bot, i) and lat.poset.leq(i, top)


def test_interval_counts_match_closed_formula():
    for n in range(1, 7):
        lat = tamari_lattice(n)
        assert len(lat.poset.intervals()) == interval_count(n)


# ------------------------------------------------------------------ canopy

def test_canopy_small_values():
    assert canopy(None) == ""
    assert canopy((None, None)) == "LR"
    lat = tamari_lattice(3)
    assert list(lat.canopies) == ["LRRR", "LLRR", "LRLR", "LLRR", "LLLR"]


def test_canopy_shape():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            w = canopy(t)
            assert len(w) == n + 1
            assert w[0] == "L" and w[-1] == "R"


def test_canopy_changes_at_most_one_letter_upward():
    # A rotation flips at most one canopy letter, and only from L to R.
    # Zero flips do occur: the pentagon cover 3 < 1 keeps the canopy LLRR.
    seen_zero = False
    for n in range(1, 7):
        lat = tamari_lattice(n)
        for a, b in lat.poset.covers:
            lo, hi = lat.canopies[a], lat.canopies[b]
            diff = [(p, q) for p, q in zip(lo, hi) if p != q]
            assert len(diff) <= 1
            assert all(pair == ("L", "R") for pair in diff)
            seen_zero = seen_zero or not diff
    assert seen_zero


def test_reverse_is_an_order_anti_automorphism():
    for n in range(1, 6):
        lat = tamari_lattice(n)
        rev = [lat.as_index(reverse(t)) for t in lat.trees]
        for a, b in lat.poset.covers:
            assert lat.poset.leq(rev[b], rev[a])
        for lo, hi in lat.poset.intervals():
            assert lat.poset.leq(rev[hi], rev[lo])


# ------------------------------------------------------------ decomposition

def test_left_border_factors_small_cases():
    assert left_border_factors(None) == []
    assert left_border_factors(right_comb(3)) == [right_comb(3)]
    assert left_border_factors(left_comb(3)) == [(None, None)] * 3
    two = ((None, None), (None, None))
    assert left_border_factors(two) == [(None, None), (None, (None, None))]
    assert composition(two) == (1, 2)


def test_left_border_factors_recompose_by_grafting():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            factors = left_border_factors(t)
            assert all(is_indecomposable(f) for f in factors)
            assert sum(size(f) for f in factors) == n
            rebuilt = None
            for f in factors:
                rebuilt = graft(rebuilt, f)
            assert rebuilt == t


def test_is_indecomposable_matches_single_factor():
    for t in enumerate_trees(5):
        assert is_indecomposable(t) == (len(left_border_factors(t)) == 1)
    with pytest.raises(ValueError):
        is_indecomposable(None)


def test_composition_coarsens_going_down():
    # the composition of the smaller tree merges parts of the larger one's
    assert is_composition_coarser((3,), (1, 2))
    assert not is_composition_coarser((1, 2), (2, 1))
    assert not is_composition_coarser((2,), (1, 2))
    for n in range(1, 7):
        lat = tamari_lattice(n)
        comps = [composition(t) for t in lat.trees]
        for a, b in lat.poset.covers:
            assert is_composition_coarser(comps[a], comps[b])


# ------------------------------------------------------------- synchronous

def test_interval_canopy_word_pairs_letters():
    lat = tamari_lattice(3)
    # canopies LLLR and LRLR pair position by position
    assert interval_canopy_word(lat, 4, 2) == ("LL", "LR", "LL", "RR")
    assert interval_canopy_word(lat, 3, 1) == ("LL", "LL", "RR", "RR")
    with pytest.raises(ValueError):
        interval_canopy_word(lat, 0, 4)  # not an interval


def test_interval_canopy_word_never_contains_rl():
    for n in range(1, 6):
        lat = tamari_lattice(n)
        for lo, hi in lat.poset.intervals():
            assert "RL" not in interval_canopy_word(lat, lo, hi)


def test_synchronous_counts():
    for n in range(1, 6):
        lat = tamari_lattice(n)
        count = sum(
            1 for lo, hi in lat.poset.intervals() if is_synchronous(lat, lo, hi)
        )
        assert count == synchronous_count(n)


def test_synchronous_iff_boundary_degrees_sum_to_n_minus_one():
    for n in range(1, 7):
        for r in interval_statistics(n):
            assert r.sync == (r.dy + r.dybar == n - 1)


# -------------------------------------------------------------- statistics

def test_interval_statistics_size_two_records():
    assert interval_statistics(2) == (
        IntervalStat(2, 0, 0, 0, 0, 1, 0, 0, 0, 1, True),
        IntervalStat(2, 1, 0, 1, 0, 0, 1, 1, 0, 0, False),
        IntervalStat(2, 1, 1, 0, 1, 0, 0, 0, 1, 0, True),
    )


def test_interval_statistics_validation():
    for stats in (interval_statistics, iter_interval_statistics):
        with pytest.raises(ValueError):
            stats(0)
        with pytest.raises(ValueError):
            stats(10)
        with pytest.raises(ValueError):
            stats(8, with_q=True)


def test_interval_records_match_per_interval_definitions():
    # every record of the kernel against the per-interval definitions, with
    # q against a longest-chain recursion over the whole lattice
    for n in range(1, 8):
        lat = tamari_lattice(n)
        poset = lat.poset
        longest = {}
        for lo in reversed(poset.topological_order()):
            for hi in poset.up_set(lo):
                longest[(lo, hi)] = 0 if lo == hi else 1 + max(
                    longest[(c, hi)] for c in poset.upper_covers(lo) if poset.leq(c, hi))
        records = interval_statistics(n)
        assert [(r.lo, r.hi) for r in records] == poset.intervals()
        for r in records:
            iv = (r.lo, r.hi)
            word = interval_canopy_word(lat, *iv)
            assert (r.n, r.dx, r.dy, r.dybar, r.dxbar, r.q) == (
                n, *poset.interval_degrees(iv), longest[iv])
            assert (r.ll, r.rr) == (word.count("LL") - 1, word.count("RR") - 1)
            assert r.sync == is_synchronous(lat, *iv)


def test_iter_interval_statistics_matches_cached_records():
    for n, with_q in ((4, None), (4, False), (6, True), (7, None)):
        assert tuple(iter_interval_statistics(n, with_q)) == interval_statistics(n, with_q)


def full_system(n):
    return SystemConfig(Mode.FULL, n)


@pytest.mark.parametrize("build", [
    enumerate_trees,
    tamari_lattice,
    interval_statistics,
    interval_valence_polynomial,
    full_system,
], ids=lambda f: f.__name__)
def test_bool_sizes_rejected(build):
    build(1)  # a cached size 1 must not answer for True
    with pytest.raises(ValueError):
        build(True)


def test_interval_statistics_q_is_longest_chain():
    # (minimum, maximum) of the pentagon: longest saturated chain 4<3<1<0
    recs = {(r.lo, r.hi): r for r in interval_statistics(3)}
    assert recs[(4, 0)].q == 3
    assert recs[(4, 2)].q == 1
    assert recs[(0, 0)].q == 0
    # q = 0 exactly on points, q = 1 exactly on covers
    for n in range(1, 6):
        lat = tamari_lattice(n)
        covers = set(lat.poset.covers)
        for r in interval_statistics(n):
            assert (r.q == 0) == (r.lo == r.hi)
            assert (r.q == 1) == ((r.lo, r.hi) in covers)


def test_interval_statistics_without_q():
    recs = interval_statistics(4, with_q=False)
    assert all(r.q is None for r in recs)
    assert len(recs) == interval_count(4)


def test_reversal_acts_on_degree_quadruples():
    # (lo, hi) -> (reverse hi, reverse lo) swaps dx with dxbar and dy with
    # dybar: the mirror anti-automorphism realizes the variable swap inside
    # the same lattice.
    for n in range(1, 6):
        lat = tamari_lattice(n)
        rev = [lat.as_index(reverse(t)) for t in lat.trees]
        degs = {(r.lo, r.hi): (r.dx, r.dy, r.dybar, r.dxbar)
                for r in interval_statistics(n)}
        for (lo, hi), (dx, dy, dybar, dxbar) in degs.items():
            assert degs[(rev[hi], rev[lo])] == (dxbar, dybar, dy, dx)


def test_stats_to_csv_layout():
    text = stats_to_csv(interval_statistics(2))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,0,0,0,0,1,0,0,0,1,1"
    assert lines[2] == "2,1,0,1,0,0,1,1,0,0,0"
    q_blank = stats_to_csv(interval_statistics(2, with_q=False)).strip().split("\n")
    assert q_blank[1] == "2,0,0,0,0,1,0,,0,1,1"


# ------------------------------------------------------------- enumerators

def test_valence_polynomial_of_pentagon_lattice():
    assert valence_polynomial(3) == MultiPoly(
        VALENCE_VARS, {(2, 0): 1, (1, 1): 3, (0, 2): 1}
    )


def test_interval_valence_polynomial_size_three():
    expected = MultiPoly(
        INTERVAL_VARS,
        {
            (0, 2, 0, 0): 1,
            (0, 1, 1, 0): 3,
            (0, 0, 2, 0): 1,
            (1, 1, 0, 1): 3,
            (2, 0, 0, 2): 1,
            (1, 1, 1, 1): 1,
            (1, 0, 1, 1): 3,
        },
    )
    assert interval_valence_polynomial(3) == expected


def test_interval_valence_polynomial_matches_generic_poset_route():
    for n in range(1, 6):
        lat = tamari_lattice(n)
        assert interval_valence_polynomial(n) == lat.poset.interval_valence_polynomial()


def test_interval_valence_polynomial_matches_per_interval_degrees():
    for n in range(1, 8):
        assert interval_valence_polynomial(n) == interval_degree_histogram(tamari_lattice(n).poset)


def test_interval_valence_polynomial_matches_statistics_records():
    for n in range(1, 7):
        terms = {}
        for r in interval_statistics(n):
            key = (r.dx, r.dy, r.dybar, r.dxbar)
            terms[key] = terms.get(key, 0) + 1
        assert interval_valence_polynomial(n) == MultiPoly(INTERVAL_VARS, terms)


def test_interval_valence_polynomial_total_mass():
    for n in range(1, 7):
        poly = interval_valence_polynomial(n)
        assert sum(poly.terms.values()) == interval_count(n)


def test_statistics_order_is_lexicographic():
    rng = random.Random(5)
    for n in (3, 4, 5):
        pairs = [(r.lo, r.hi) for r in interval_statistics(n)]
        assert pairs == sorted(pairs)
        # spot-check a few records against direct degree computation
        lat = tamari_lattice(n)
        for r in rng.sample(list(interval_statistics(n)), 5):
            assert lat.poset.interval_degrees((r.lo, r.hi)) == (r.dx, r.dy, r.dybar, r.dxbar)
