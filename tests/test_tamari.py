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
import signal
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import pytest

from intervalence import (
    FinitePoset,
    Mode,
    MultiPoly,
    SeriesT,
    SystemConfig,
    canopy,
    check_alternative_decomposition,
    check_bridge_identity,
    composition,
    decode,
    divided_difference,
    encode,
    enumerate_trees,
    interval_canopy_word,
    interval_statistics,
    interval_valence_polynomial,
    is_synchronous,
    left_border_factors,
    residual,
    reverse,
    rotation_covers,
    solve,
    tamari_lattice,
)
from intervalence.poset import INTERVAL_VARS, VALENCE_VARS
from intervalence.series import SYNC_RESIDUAL_COEFFS
from intervalence.tamari import (
    CSV_HEADER,
    IntervalClass,
    IntervalStat,
    _interval_classes,
    graft,
    is_composition_coarser,
    is_indecomposable,
    interval_csv,
    interval_histogram,
    left_comb,
    right_comb,
    size,
    stats_to_csv,
    valence_polynomial,
)
from intervalence.verify import (distribution_table, run_suites, summarize_reports,
                                 table_to_matrix)

from helpers import (catalan, interval_count, interval_degree_histogram, reference_lattice,
                     synchronous_count)

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


def test_decode_parses_deep_text():
    # a right comb 5000 deep, past the recursion limit; walked along its
    # right spine, since == on deeply nested tuples recurses too
    tree = decode("(o " * 5000 + "o" + ")" * 5000)
    depth = 0
    while tree is not None:
        assert tree[0] is None
        tree = tree[1]
        depth += 1
    assert depth == 5000


@pytest.mark.parametrize("value", [
    MultiPoly.variable(("x",), "x"),
    SeriesT(("u",), 2),
    FinitePoset(2, [(0, 1)]),
    tamari_lattice(2),
], ids=lambda v: type(v).__name__)
def test_shared_values_refuse_attribute_assignment(value):
    # the caches hand one object to every caller, so none may be changed
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        value.extra = None


def test_combs_and_size():
    assert right_comb(3) == (None, (None, (None, None)))
    assert left_comb(3) == (((None, None), None), None)
    assert size(right_comb(5)) == 5
    assert size(None) == 0


@contextmanager
def time_bound(seconds):
    """Raise ``TimeoutError`` in the body once it has run ``seconds``, so that
    a call that never returns fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: left_border_factors("ab"),
    lambda: composition("ab"),
    lambda: size("ab"),
    lambda: size((None, None, None)),
    lambda: graft(None, "ab"),
    lambda: tamari_lattice(3).as_index("x"),
    lambda: tamari_lattice(3).leq("x", 0),
    lambda: is_synchronous(tamari_lattice(3), "x", 0),
    lambda: interval_canopy_word(tamari_lattice(3), 0, "x"),
    lambda: encode("ab"),
    lambda: encode((None, ")")),
    lambda: canopy("ab"),
    lambda: canopy((None, (None, "ab"))),
    lambda: reverse("ab"),
    lambda: reverse(((None, None), [None, None])),
    lambda: rotation_covers("ab"),
    lambda: rotation_covers((None, "ab")),
    lambda: rotation_covers(((None, "ab"), None)),
    lambda: is_indecomposable("ab"),
    lambda: is_indecomposable((1, 2)),
    lambda: is_indecomposable({}),
    lambda: graft("x", (None, None)),
], ids=["left_border_factors", "composition", "size", "size_triple", "graft", "as_index",
        "leq", "is_synchronous", "interval_canopy_word", "encode", "encode_separator",
        "canopy", "canopy_inner", "reverse", "reverse_list", "rotation_covers",
        "rotation_covers_right", "rotation_covers_inner", "is_indecomposable",
        "is_indecomposable_left_child", "is_indecomposable_dict", "graft_first_tree"])
def test_non_trees_raise_value_error_at_once(call):
    # a string indexes to itself ("a"[0] == "a"), so a walk down it never ends
    with time_bound(1.0), pytest.raises(ValueError):
        call()


def test_size_composition_and_graft_work_at_depth_5000():
    deep_right, deep_left = right_comb(5000), left_comb(5000)
    assert size(deep_right) == size(deep_left) == 5000
    assert composition(deep_right) == (5000,)
    assert composition(deep_left) == (1,) * 5000
    grafted = graft(deep_right, deep_left)
    assert size(grafted) == 10000
    # walked, since == on deeply nested tuples recurses
    node = grafted
    for _ in range(5000):
        assert node[1] is None
        node = node[0]
    assert node is deep_right
    # the walks of encode, canopy, reverse and rotation_covers
    assert encode(deep_right) == "(o " * 5000 + "o" + ")" * 5000
    assert encode(deep_left) == "(" * 5000 + "o" + " o)" * 5000
    assert canopy(deep_right) == "L" * 5000 + "R"
    assert canopy(deep_left) == "L" + "R" * 5000
    assert rotation_covers(deep_left) == []
    node = reverse(deep_left)
    for _ in range(5000):
        assert node[0] is None
        node = node[1]
    assert node is None
    # one rotation at the bottom of a left comb: its cover is a left comb,
    # copied along the 5000 nodes above the rotated one
    (cover,) = rotation_covers(graft((None, (None, None)), deep_left))
    for _ in range(5002):
        assert cover[1] is None
        cover = cover[0]
    assert cover is None


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
        poset = lat.poset
        assert [v for v in range(poset.m) if not poset.lower_covers(v)] == [lat.minimum()]
        assert [v for v in range(poset.m) if not poset.upper_covers(v)] == [lat.maximum()]


def test_index_order_reverses_the_rotation_order():
    # encoding order lists every upper cover first, so the q walk may visit
    # an up-set by decreasing index and the ends of the lattice are 0 and m - 1
    for n in range(1, 10):
        lat = tamari_lattice(n)
        assert all(b < a for a, b in lat.poset.covers), n
        assert (lat.minimum(), lat.maximum()) == (lat.poset.m - 1, 0)


@pytest.mark.parametrize("n", [
    *range(1, 9), *(pytest.param(n, marks=pytest.mark.slow) for n in (9, 10))])
def test_lattice_matches_per_tree_definitions(n):
    # the table build against every tree sorted by encode, its rotation
    # covers looked up one by one and its canopy walked
    lat = tamari_lattice(n)
    trees, index, canopies, poset = reference_lattice(n)
    assert lat.trees == trees
    assert lat.index == index
    assert lat.canopies == canopies
    for field in ("covers", "_upper", "_lower", "_up", "_topo", "_width"):
        assert getattr(lat.poset, field) == getattr(poset, field), field


def test_lattice_build_peak_is_bounded():
    # traced peak of building the size-9 lattice afresh: 8.1 MB while
    # FinitePoset copied every cover pair into a set and then a tuple,
    # 6.4 MB with one copy of each pair, 5.4 MB with the cover tuples
    # built before the up-sets and each ordered cover list freed once read
    tracemalloc.start()
    try:
        tamari_lattice.__wrapped__(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0e6


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
    assert tuple(interval_statistics(2)) == (
        IntervalStat(2, 0, 0, 0, 0, 1, 0, 0, 0, 1, True),
        IntervalStat(2, 1, 0, 1, 0, 0, 1, 1, 0, 0, False),
        IntervalStat(2, 1, 1, 0, 1, 0, 0, 0, 1, 0, True),
    )


def test_interval_statistics_validation():
    # checked at the call, before the first record is asked for
    with pytest.raises(ValueError):
        interval_statistics(0)
    with pytest.raises(ValueError):
        interval_statistics(10)
    with pytest.raises(ValueError):
        interval_statistics(8, with_q=True)
    for with_q in ("yes", 1, 0):
        with pytest.raises(TypeError):
            interval_statistics(3, with_q)
        with pytest.raises(TypeError):
            interval_csv(3, with_q)
    for n in (0, 10, 2.0):
        with pytest.raises(ValueError):
            interval_histogram(n)


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
        records = tuple(interval_statistics(n))
        assert [(r.lo, r.hi) for r in records] == poset.intervals()
        for r in records:
            iv = (r.lo, r.hi)
            word = interval_canopy_word(lat, *iv)
            assert (r.n, r.dx, r.dy, r.dybar, r.dxbar, r.q) == (
                n, *poset.interval_degrees(iv), longest[iv])
            assert (r.ll, r.rr) == (word.count("LL") - 1, word.count("RR") - 1)
            assert r.sync == is_synchronous(lat, *iv)


def test_interval_histogram_counts_the_records():
    # the histogram against its definition: the records projected to their
    # class, and the doubly-extremal pairs among them
    for n in range(1, 8):
        lat = tamari_lattice(n)
        records = tuple(interval_statistics(n))
        projected = Counter(
            IntervalClass(r.dx, r.dy, r.dybar, r.dxbar, r.q, r.ll, r.rr, r.sync,
                          r.lo == r.hi, r.lo == lat.minimum(), r.hi == lat.maximum())
            for r in records)
        histogram = interval_histogram(n)
        assert histogram.counts == projected
        assert sorted(histogram.extremal) == [
            (r.lo, r.hi) for r in records if r.dx + r.dy == n - 1 == r.dxbar + r.dybar]
    assert len(interval_histogram(7).counts) == 653
    with pytest.raises(TypeError):
        interval_histogram(2).counts[next(iter(interval_histogram(2).counts))] = 0


@pytest.mark.parametrize("n, classes", [
    (7, 653), (8, 146), pytest.param(9, 223, marks=pytest.mark.slow)])
def test_interval_classes_feed_every_reader_one_table(n, classes):
    # one walk of the class step against the records, the CSV rows and the
    # histogram, which each walk it again: every (lo, hi) reads one class
    lat = tamari_lattice(n)
    bottom, top = lat.minimum(), lat.maximum()
    records, rows = interval_statistics(n), interval_csv(n)
    assert next(rows) == CSV_HEADER + "\n"
    table, counts, extremal, distinct = [], Counter(), [], set()
    for lo, ids in _interval_classes(lat, n <= 7, table):
        for hi, i in ids.items():  # kernel order, as the histogram walks it
            dx, dy, dybar, dxbar = table[i][:4]
            counts[IntervalClass(*table[i], lo == hi, lo == bottom, hi == top)] += 1
            if dx + dy == n - 1 == dybar + dxbar:
                extremal.append((lo, hi))
        for hi in sorted(ids):
            cls = table[ids[hi]]
            record = next(records)
            distinct.add(record[3:])
            assert record == (n, lo, hi) + cls
            dx, dy, dybar, dxbar, q, ll, rr, sync = cls
            assert next(rows) == (f"{n},{lo},{hi},{dx},{dy},{dybar},{dxbar},"
                                  f"{'' if q is None else q},{ll},{rr},{int(sync)}\n")
    assert next(records, None) is None and next(rows, None) is None
    assert len(set(table)) == len(table) == len(distinct) == classes
    histogram = interval_histogram(n)
    assert histogram.counts == counts
    assert histogram.extremal == tuple(extremal)


def test_interval_statistics_is_not_cached():
    first, second = interval_statistics(3), interval_statistics(3)
    assert iter(first) is first and first is not second
    assert tuple(first) == tuple(second)


def full_system(n):
    return SystemConfig(Mode.FULL, n)


@pytest.mark.parametrize("build", [
    enumerate_trees,
    tamari_lattice,
    interval_statistics,
    interval_valence_polynomial,
    interval_histogram,
    full_system,
], ids=lambda f: f.__name__)
def test_bool_sizes_rejected(build):
    build(1)  # a cached size 1 must not answer for True
    with pytest.raises(ValueError):
        build(True)


@pytest.mark.parametrize("build", [
    lambda: FinitePoset(True, []),
    lambda: FinitePoset(2, [(True, 0)]),
    lambda: MultiPoly.constant(("x",), True),
    lambda: MultiPoly(("x",), {(True,): 2}),
    lambda: MultiPoly(("x",), {(1,): True}),
    lambda: tamari_lattice(3).as_index(True),
    lambda: MultiPoly.variable(("x",), "x") ** True,
    lambda: MultiPoly.variable(("x",), "x") * True,
    lambda: SeriesT(("u",), 2) * True,
    lambda: True * SeriesT(("u",), 2),
], ids=["poset_size", "cover", "constant", "exponent", "coefficient", "tree_index",
        "power", "scalar", "series_scalar", "series_rscalar"])
def test_bool_integers_rejected(build):
    # the JSON schemas promise ints; True would be written out as `true`
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("call", [
    lambda: solve("full"),
    lambda: check_alternative_decomposition(None),
    lambda: check_bridge_identity(None),
    lambda: residual(None, SYNC_RESIDUAL_COEFFS),
    lambda: divided_difference(1, 1, "u"),
    lambda: SeriesT(("x",), 1, [1]),
    lambda: MultiPoly(("x",), [((1,), 1)]),
    lambda: decode(5),
    lambda: interval_canopy_word(None, 0, 0),
    lambda: is_synchronous(FinitePoset(1, []), 0, 0),
    lambda: FinitePoset(1, []).product(None),
    lambda: summarize_reports([1]),
    lambda: MultiPoly.monomial(("x",), ["x"]),
    lambda: MultiPoly.monomial(("x",), None),
    lambda: MultiPoly.variable(("x",), "x").coefficient([("x", 1)]),
    lambda: MultiPoly.variable(("x",), "x").coefficient(None),
    lambda: MultiPoly.variable(("x",), "x").substitute([("x", 1)]),
    lambda: MultiPoly.variable(("x",), "x").substitute(None),
    lambda: MultiPoly.variable(("x",), "x").permute_vars(["x"]),
    lambda: MultiPoly.zero(()).permute_vars(None),
    lambda: MultiPoly.variable(("x",), "x").is_symmetric(["x"]),
    lambda: MultiPoly.variable(("x",), "x").is_symmetric(None),
    lambda: FinitePoset(1, []).interval_degrees(0),
    lambda: run_suites(["ternary"], True),
    lambda: run_suites(["ternary"], 3.0),
    lambda: run_suites("ternary", "3"),
    lambda: distribution_table(None, "dx", "dy"),
    lambda: table_to_matrix([1, 2], 2),
    lambda: MultiPoly("xy", {(1, 0): 1}),
    lambda: MultiPoly.variable("xbar", "xbar"),
    lambda: SeriesT("xy", 1),
    lambda: MultiPoly.variable(("x", "y"), "x").support("xy"),
], ids=["solve", "alternative_decomposition", "bridge_identity", "residual",
        "divided_difference", "series_coefficient", "terms_list", "decode",
        "canopy_word_lattice", "synchronous_lattice", "poset_product",
        "summarize_reports", "monomial_list", "monomial_none", "coefficient_list",
        "coefficient_none", "substitute_list", "substitute_none", "permute_vars_list",
        "permute_vars_none", "is_symmetric_list", "is_symmetric_none",
        "interval_degrees_not_a_pair", "run_suites_bool_n_max", "run_suites_float_n_max",
        "run_suites_str_n_max", "distribution_table_none", "table_to_matrix_list",
        "multipoly_str_universe", "variable_str_universe", "series_str_universe",
        "support_str"])
def test_arguments_of_the_wrong_type_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


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
    recs = tuple(interval_statistics(4, with_q=False))
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
    # the rows written per class, line by line, with and without q
    for n in range(1, 7):
        for with_q in (True, False):
            pieces = list(interval_csv(n, with_q))
            assert all(p.count("\n") == 1 and p.endswith("\n") for p in pieces)
            assert "".join(pieces) == stats_to_csv(interval_statistics(n, with_q))


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
