"""Verification suites: every registered check passes at desk scale, the
frozen reference constants agree with independent formulas, and the
predicates are sharp enough to notice a corrupted enumerator.
"""

import json
import re
from collections import Counter

import pytest

from intervalence import CheckReport, MultiPoly, run_suites, summarize_reports, tamari
from intervalence.verify import (
    CANOPY_MATRICES,
    SUITES,
    TRIANGLE_MATRICES,
    _bicubic_count,
    _interval_count,
    _motzkin,
    _synchronous_count,
    brute_force_weights,
    distribution_table,
    table_to_matrix,
)
from intervalence import interval_statistics

from helpers import bicubic_count, interval_count, motzkin, synchronous_count


# ---------------------------------------------------------------- constants

def test_interval_counts_match_closed_formula():
    # OEIS A000260
    assert [_interval_count(n) for n in range(1, 9)] == [1, 3, 13, 68, 399, 2530, 16965, 118668]
    assert [_interval_count(n) for n in range(1, 30)] == [interval_count(n) for n in range(1, 30)]


def test_synchronous_counts_match_closed_formula():
    # OEIS A000139
    assert [_synchronous_count(n) for n in range(1, 8)] == [1, 2, 6, 22, 91, 408, 1938]
    assert ([_synchronous_count(n) for n in range(1, 30)]
            == [synchronous_count(n) for n in range(1, 30)])


def test_motzkin_constants_match_recurrence():
    # OEIS A001006; the test oracle uses the convolution recurrence instead
    assert [_motzkin(n) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
    assert [_motzkin(n) for n in range(40)] == [motzkin(n) for n in range(40)]


def test_bicubic_counts_match_brute_force():
    # OEIS A000257, checked by enumeration through n = 7 (9152 intervals)
    for n in range(1, 8):
        counts = tamari.interval_histogram(n).counts
        got = sum(k for c, k in counts.items() if c.dx + c.dy + c.dybar == n - 1)
        assert got == _bicubic_count(n) == bicubic_count(n)
    assert _bicubic_count(7) == 9152
    assert [_bicubic_count(n) for n in range(1, 30)] == [bicubic_count(n) for n in range(1, 30)]


def test_triangle_matrices_match_interval_poset_valences():
    # frozen matrices of the two-variable enumerator of the interval poset
    from intervalence import tamari_lattice

    for n, matrix in TRIANGLE_MATRICES.items():
        ip, _ = tamari_lattice(n).poset.interval_poset()
        table = ip.valence_polynomial().terms
        assert table_to_matrix(table, n) == [list(row) for row in matrix]


def test_canopy_matrices_match_enumeration():
    # identical under either reading: (dy, dybar) degrees or canopy letters
    for n, matrix in CANOPY_MATRICES.items():
        recs = Counter(interval_statistics(n, with_q=False))
        by_degree = distribution_table(recs, "dy", "dybar")
        by_canopy = distribution_table(recs, "ll", "rr")
        assert table_to_matrix(by_degree, n) == [list(row) for row in matrix]
        assert table_to_matrix(by_canopy, n) == [list(row) for row in matrix]


# ------------------------------------------------------------------ helpers

def test_distribution_table_and_matrix_layout():
    recs = Counter(interval_statistics(2, with_q=False))
    table = distribution_table(recs, "dy", "dybar")
    assert table == {(0, 1): 1, (0, 0): 1, (1, 0): 1}
    # first statistic rightward, second upward: bottom-left is (0, 0)
    assert table_to_matrix(table, 2) == [[1, 0], [1, 1]]


def test_distribution_table_rejects_q_where_it_is_not_computed():
    # q is None in every class at n = 8, so a (q, dy) table keyed (None, d)
    # would equal the (q, dybar) table by the dy/dybar symmetry alone
    histogram = tamari.interval_histogram(8).counts
    for pair in (("q", "dy"), ("dybar", "q")):
        with pytest.raises(ValueError, match="statistic 'q'"):
            distribution_table(histogram, *pair)


def test_distribution_table_rejects_an_unknown_statistic():
    histogram = tamari.interval_histogram(3).counts
    for pair in (("zz", "dy"), ("dy", "zz")):
        with pytest.raises(ValueError, match="statistic 'zz' is unknown"):
            distribution_table(histogram, *pair)


def test_brute_force_weights_small():
    assert brute_force_weights(1) == MultiPoly(("x", "y", "ybar"), {(0, 0, 0): 1})
    assert sum(brute_force_weights(4).terms.values()) == interval_count(4)


# ------------------------------------------------------------------- suites

@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_each_suite_passes(suite_id):
    report = SUITES[suite_id](4)
    assert isinstance(report, CheckReport)
    assert report.passed(), report.witness
    assert report.witness is None
    assert report.wall_time >= 0
    assert report.n_range[0] >= 1


def test_reports_are_json_serializable():
    for report in run_suites(["triangle", "realroots"], 4):
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["status"] == "pass"


def test_run_suites_all_and_unknown():
    reports = run_suites("all", 3)
    assert sorted(r.check_id for r in reports) == sorted(SUITES)
    with pytest.raises(ValueError):
        run_suites(["nosuch"], 3)
    # a bare name is one suite, not a sequence of one-letter names
    report, = run_suites("ternary", 3)
    assert report.check_id == "ternary"
    with pytest.raises(ValueError, match=r"\['nosuch'\]"):
        run_suites("nosuch", 3)


def test_summarize_reports_format():
    reports = run_suites(["sync"], 4)
    text = summarize_reports(reports)
    assert "PASS" in text and "sync" in text


def test_empty_range_skips_the_body(monkeypatch):
    def untouchable(n):
        raise AssertionError(f"suite body ran for n={n}")

    monkeypatch.setattr(tamari, "interval_valence_polynomial", untouchable)
    report, = run_suites(["realroots"], 1)
    assert (report.status, report.witness, report.details) == ("skip", None, {})
    assert report.n_range == (2, 1)
    assert not report.passed()
    assert summarize_reports([report]).startswith("SKIP realroots")


def test_failing_report_carries_witness():
    report = CheckReport("demo", (1, 3), "fail", "n=2: off by one", 0.1)
    assert not report.passed()
    assert "off by one" in summarize_reports([report])


def bump_x_squared(p):
    return p + MultiPoly.monomial(p.vars, {"x": 2})


def not_real_rooted(p):
    # x^2 + 1, whose z/1/1/1 specialisation z^2 + 1 has imaginary roots
    return MultiPoly.monomial(p.vars, {"x": 2}) + 1


def move_one_interval_to_dy_plus_one(histogram):
    # the diagonal interval at the maximum tree moves to the class with dy + 1
    counts = dict(histogram.counts)
    cls = next(c for c in counts if c.diagonal and c.hi_maximal)
    counts[cls] -= 1
    if not counts[cls]:
        del counts[cls]
    moved = cls._replace(dy=cls.dy + 1)
    counts[moved] = counts.get(moved, 0) + 1
    return histogram._replace(counts=counts)


MOVED_CLASS = (r"n=3 IntervalClass\(dx=0, dy=1, dybar=2, dxbar=0, q=0, ll=0, rr=2, "
               r"sync=True, diagonal=True, lo_minimal=False, hi_maximal=True\) \(1 interval\)")

# suite -> (data source in tamari, corruption at n = 3, n_range for --max-n 8,
#           witness pattern)
CORRUPTIONS = {
    "ternary": ("interval_valence_polynomial", bump_x_squared, (1, 8), r"\bn=3\b"),
    "xxbar": ("interval_valence_polynomial", bump_x_squared, (1, 8), r"\bn=3\b"),
    "triangle": ("interval_valence_polynomial", bump_x_squared, (1, 6), r"\bn=3\b"),
    "sync": ("interval_histogram", move_one_interval_to_dy_plus_one, (1, 7),
             MOVED_CLASS + r": sync=True but dy\+dybar=3"),
    "degree": ("interval_histogram", move_one_interval_to_dy_plus_one, (1, 7),
               MOVED_CLASS + r": dy = 0 does not match hi maximal"),
    "distribution": ("interval_histogram", move_one_interval_to_dy_plus_one, (1, 7),
                     r"n=3: \(dx,dy\) table differs from \(dy,dybar\) at cells "
                     r"\{\(0, 0\): \(0, 1\), \(0, 1\): \(4, 3\), \(0, 2\): \(1, 0\), "
                     r"\(1, 2\): \(0, 1\)\}"),
    "conjectures": ("interval_histogram", move_one_interval_to_dy_plus_one, (1, 7),
                    r"n=3, 4 intervals of total degree n-1 against 5 diagonal intervals"),
    "realroots": ("interval_valence_polynomial", not_real_rooted, (2, 7), r"\bn=3\b"),
}


@pytest.fixture
def uncached_histograms():
    """Keep corrupted histograms out of the record suites' shared cache."""
    cached = tamari.interval_histogram
    cached.cache_clear()
    yield
    cached.cache_clear()


@pytest.mark.parametrize("suite_id", list(CORRUPTIONS))
def test_each_suite_fails_on_corrupted_data(suite_id, monkeypatch, uncached_histograms):
    source, corrupt, n_range, witness = CORRUPTIONS[suite_id]
    original = getattr(tamari, source)

    def corrupted(n, *args):
        data = original(n, *args)
        return corrupt(data) if n == 3 else data

    monkeypatch.setattr(tamari, source, corrupted)
    report, = run_suites([suite_id], 8)
    assert report.status == "fail"
    assert re.search(r"\bn=3\b", report.witness), report.witness
    assert re.search(witness, report.witness), report.witness
    assert report.n_range == n_range


def shift_q_of_one_interval(histogram):
    # one interval with dy != dybar moves to q + 1, which only the q tables read
    counts = dict(histogram.counts)
    cls = next(c for c in counts if c.dy != c.dybar)
    counts[cls] -= 1
    if not counts[cls]:
        del counts[cls]
    moved = cls._replace(q=cls.q + 1)
    counts[moved] = counts.get(moved, 0) + 1
    return histogram._replace(counts=counts)


def add_comparable_extremal(histogram):
    # (lo, top) lies above the doubly-extremal (lo, hi) in the interval order
    top = tamari.tamari_lattice(7).maximum()
    lo, hi = next((lo, hi) for lo, hi in histogram.extremal if hi != top)
    return histogram._replace(extremal=histogram.extremal + ((lo, top),))


# suite -> (corruption of the n = 7 histogram, witness pattern)
N7_CORRUPTIONS = {
    "distribution": (shift_q_of_one_interval,
                     r"^n=7: \(q,dy\) table differs from \(q,dybar\) at cells"),
    "conjectures": (add_comparable_extremal,
                    r"^conjecture counterexample: n=7, extremal intervals "
                    r"\(\d+,\d+\) and \(\d+,\d+\) are comparable$"),
}


@pytest.mark.parametrize("suite_id", list(N7_CORRUPTIONS))
def test_n7_checks_fail_on_corrupted_data(suite_id, monkeypatch):
    corrupt, witness = N7_CORRUPTIONS[suite_id]
    original = tamari.interval_histogram

    def corrupted(n):
        data = original(n)
        return corrupt(data) if n == 7 else data

    monkeypatch.setattr(tamari, "interval_histogram", corrupted)
    report, = run_suites([suite_id], 7)
    assert report.status == "fail"
    assert re.search(witness, report.witness), report.witness


def test_ternary_checks_two_transpositions_per_projection(monkeypatch):
    swaps = []
    original = MultiPoly.is_symmetric

    def counted(self, mapping):
        swaps.append(mapping)
        return original(self, mapping)

    monkeypatch.setattr(MultiPoly, "is_symmetric", counted)
    assert SUITES["ternary"](5).passed()
    assert len(swaps) == 4 * 5
    assert all(len(mapping) == 2 for mapping in swaps)


def test_bare_check_runs_to_its_cap():
    report = SUITES["triangle"]()
    assert report.passed(), report.witness
    assert report.n_range == (1, 6)


# --------------------------------------------------- sensitivity to corruption

def corrupted_copies(poly):
    """Every +1 bump of a single coefficient of the enumerator."""
    for exp in sorted(poly.terms):
        terms = dict(poly.terms)
        terms[exp] += 1
        yield exp, MultiPoly(poly.vars, terms)


def test_predicates_detect_any_single_coefficient_bump():
    # the symmetry and mass predicates jointly reject every +1 corruption of
    # the size-3 enumerator projected to (x, y, ybar)
    good = brute_force_weights(3)
    swaps = (
        {"x": "y", "y": "x"},
        {"y": "ybar", "ybar": "y"},
        {"x": "ybar", "ybar": "x"},
    )
    assert all(good.is_symmetric(s) for s in swaps)
    assert sum(good.terms.values()) == interval_count(3)
    for exp, bad in corrupted_copies(good):
        symmetric = all(bad.is_symmetric(s) for s in swaps)
        mass_ok = sum(bad.terms.values()) == interval_count(3)
        assert not (symmetric and mass_ok), f"bump at {exp} went unnoticed"


def test_four_variable_corruption_breaks_duality_or_mass():
    from intervalence import interval_valence_polynomial

    good = interval_valence_polynomial(3)
    swap = {"x": "xbar", "xbar": "x", "y": "ybar", "ybar": "y"}
    for exp, bad in corrupted_copies(good):
        dual_ok = bad.is_symmetric(swap)
        mass_ok = sum(bad.terms.values()) == interval_count(3)
        assert not (dual_ok and mass_ok), f"bump at {exp} went unnoticed"
