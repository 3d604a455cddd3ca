"""Catalytic functional equations solved as truncated series.

The low-order coefficients frozen here were computed by hand from the
size-1..3 lattices (5 trees, 13 intervals at size 3) and double-checked
against the brute-force enumerator; they pin the solver exactly, including
the catalytic exponents in u and v.
"""

import pytest

from intervalence import (
    Mode,
    MultiPoly,
    SeriesT,
    SystemConfig,
    check_alternative_decomposition,
    check_bridge_identity,
    interval_statistics,
    is_synchronous,
    residual,
    solve,
    tamari_lattice,
)
from intervalence.series import (
    BICUBIC_RESIDUAL_COEFFS,
    MODE_CATALYTIC,
    MODE_UNIVERSES,
    SYNC_RESIDUAL_COEFFS,
)

from helpers import bicubic_count, is_indecomposable, synchronous_count

FULL_VARS = ("u", "v", "x", "y", "ybar")

# exponent order (u, v, x, y, ybar)
PHI_1 = MultiPoly(FULL_VARS, {(1, 1, 0, 0, 0): 1})
PHI_2 = MultiPoly(FULL_VARS, {(2, 1, 1, 0, 0): 1, (1, 2, 0, 0, 1): 1, (1, 1, 0, 1, 0): 1})
PHI_3 = MultiPoly(
    FULL_VARS,
    {
        (3, 1, 2, 0, 0): 1,
        (3, 1, 1, 0, 1): 1,
        (2, 2, 1, 0, 1): 1,
        (1, 3, 1, 0, 1): 1,
        (2, 1, 1, 1, 1): 1,
        (1, 3, 0, 0, 2): 1,
        (2, 1, 1, 1, 0): 2,
        (1, 2, 0, 1, 1): 2,
        (1, 1, 1, 1, 0): 1,
        (1, 1, 0, 2, 0): 1,
        (1, 1, 0, 1, 1): 1,
    },
)
THETA_2 = MultiPoly(FULL_VARS, {(2, 1, 1, 0, 0): 1, (1, 1, 0, 1, 0): 1})
THETA_3 = MultiPoly(
    FULL_VARS,
    {
        (3, 1, 2, 0, 0): 1,
        (3, 1, 1, 0, 1): 1,
        (2, 1, 1, 1, 1): 1,
        (2, 1, 1, 1, 0): 2,
        (1, 1, 1, 1, 0): 1,
        (1, 1, 0, 2, 0): 1,
        (1, 1, 0, 1, 1): 1,
    },
)

UNIT_VARS = ("x", "y", "ybar")
PHI_UNIT_3 = MultiPoly(
    UNIT_VARS,
    {(1, 1, 1): 1, (2, 0, 0): 1, (1, 1, 0): 3, (0, 2, 0): 1,
     (1, 0, 1): 3, (0, 1, 1): 3, (0, 0, 2): 1},
)
THETA_UNIT_3 = MultiPoly(
    UNIT_VARS,
    {(1, 1, 1): 1, (2, 0, 0): 1, (1, 1, 0): 3, (0, 2, 0): 1,
     (1, 0, 1): 1, (0, 1, 1): 1},
)


def brute_weights(n):
    """(x, y, ybar) weight of the size-n lattice from raw interval degrees."""
    terms = {}
    for r in interval_statistics(n, with_q=False):
        key = (r.dx, r.dy, r.dybar)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(UNIT_VARS, terms)


# ------------------------------------------------------------------- config

def test_config_validation():
    cfg = SystemConfig("full", 5)
    assert cfg.mode is Mode.FULL and cfg.N == 5
    assert cfg.universe == FULL_VARS
    assert cfg.catalytic == ("u", "v")
    assert cfg.weight_vars == ("x", "y", "ybar")
    with pytest.raises(ValueError):
        SystemConfig("full", 0)
    with pytest.raises(ValueError):
        SystemConfig("nope", 5)


def test_mode_tables_are_consistent():
    for mode in Mode:
        universe = MODE_UNIVERSES[mode]
        for name in MODE_CATALYTIC[mode]:
            assert name in universe


# -------------------------------------------------------------- full system

@pytest.fixture(scope="module")
def full():
    return solve(SystemConfig(Mode.FULL, 6))


def test_full_interval_series_low_orders(full):
    assert full.intervals.coeffs[0].is_zero()
    assert full.intervals.coeffs[1] == PHI_1
    assert full.intervals.coeffs[2] == PHI_2
    assert full.intervals.coeffs[3] == PHI_3


def test_full_indecomposable_series_low_orders(full):
    assert full.indecomposable.coeffs[1] == PHI_1  # single interval, itself indecomposable
    assert full.indecomposable.coeffs[2] == THETA_2
    assert full.indecomposable.coeffs[3] == THETA_3


def test_full_series_at_unit(full):
    phi_unit = full.intervals_at_unit()
    theta_unit = full.indecomposable_at_unit()
    assert phi_unit.vars == UNIT_VARS
    assert phi_unit.coeffs[3] == PHI_UNIT_3
    assert theta_unit.coeffs[3] == THETA_UNIT_3


def test_full_matches_brute_force(full):
    for n in range(1, 6):
        assert full.intervals_at_unit().coeffs[n] == brute_weights(n)


def test_indecomposable_matches_brute_force(full):
    for n in range(1, 6):
        lat = tamari_lattice(n)
        terms = {}
        for r in interval_statistics(n, with_q=False):
            if is_indecomposable(lat.trees[r.lo]):
                key = (r.dx, r.dy, r.dybar)
                terms[key] = terms.get(key, 0) + 1
        assert full.indecomposable_at_unit().coeffs[n] == MultiPoly(UNIT_VARS, terms)


def test_alternative_decomposition_holds(full):
    assert check_alternative_decomposition(full)


def test_bridge_identity_holds(full):
    assert check_bridge_identity(full)


def test_checks_reject_other_modes():
    out = solve(SystemConfig(Mode.CANOPY, 3))
    with pytest.raises(ValueError):
        check_alternative_decomposition(out)
    with pytest.raises(ValueError):
        check_bridge_identity(out)


def test_alternative_decomposition_detects_corruption(full):
    # bump one interval coefficient; the decomposition identity must break
    coeffs = list(full.intervals.coeffs)
    coeffs[4] = coeffs[4] + MultiPoly.variable(FULL_VARS, "u")
    broken = type(full)(full.config, SeriesT(FULL_VARS, full.config.N, coeffs),
                        full.indecomposable)
    assert not check_alternative_decomposition(broken)


def test_solver_is_deterministic():
    a = solve(SystemConfig(Mode.FULL, 5))
    b = solve(SystemConfig(Mode.FULL, 5))
    assert a.intervals == b.intervals and a.indecomposable == b.indecomposable


# ----------------------------------------------------------------- q system

def test_q_system_low_orders():
    out = solve(SystemConfig(Mode.Q_ANALOGUE, 4))
    unit = out.intervals_at_unit()
    assert unit.vars == ("q", "x", "y", "ybar")
    # the three size-2 intervals: covers carry q, points do not
    assert unit.coeffs[2] == MultiPoly(
        ("q", "x", "y", "ybar"),
        {(1, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
    )


def test_q_system_matches_longest_chain_statistic():
    out = solve(SystemConfig(Mode.Q_ANALOGUE, 6))
    unit = out.intervals_at_unit()
    for n in range(1, 6):
        terms = {}
        for r in interval_statistics(n):
            key = (r.q, r.dx, r.dy, r.dybar)
            terms[key] = terms.get(key, 0) + 1
        assert unit.coeffs[n] == MultiPoly(("q", "x", "y", "ybar"), terms)


def test_q_system_specializes_to_full():
    q_out = solve(SystemConfig(Mode.Q_ANALOGUE, 5))
    full_out = solve(SystemConfig(Mode.FULL, 5))
    collapsed = q_out.intervals.substitute({"q": 1}, FULL_VARS)
    assert collapsed == full_out.intervals


# ------------------------------------------------------------ canopy system

def test_canopy_system_equals_specialized_full():
    canopy_out = solve(SystemConfig(Mode.CANOPY, 6))
    full_out = solve(SystemConfig(Mode.FULL, 6))
    target = ("u", "LL", "RR")
    binding = {
        "x": 1,
        "v": MultiPoly.variable(target, "u"),
        "y": MultiPoly.variable(target, "LL"),
        "ybar": MultiPoly.variable(target, "RR"),
    }
    specialized = full_out.intervals.substitute(binding, target)
    assert specialized == canopy_out.intervals


def test_canopy_system_counts_canopy_letters():
    out = solve(SystemConfig(Mode.CANOPY, 6))
    unit = out.intervals_at_unit()
    for n in range(1, 6):
        terms = {}
        for r in interval_statistics(n, with_q=False):
            key = (r.ll, r.rr)
            terms[key] = terms.get(key, 0) + 1
        assert unit.coeffs[n] == MultiPoly(("LL", "RR"), terms)


# -------------------------------------------------------- restricted systems

def test_synchronous_counts_and_residual():
    out = solve(SystemConfig(Mode.SYNCHRONOUS_RESTRICTED, 30))
    counts = out.intervals_at_unit().constant_values()
    assert counts[1:] == [synchronous_count(n) for n in range(1, 30)]
    assert residual(out.intervals_at_unit(), SYNC_RESIDUAL_COEFFS).is_zero()


def test_synchronous_series_matches_enumeration():
    out = solve(SystemConfig(Mode.SYNCHRONOUS_RESTRICTED, 6))
    counts = out.intervals_at_unit().constant_values()
    for n in range(1, 6):
        lat = tamari_lattice(n)
        brute = sum(1 for lo, hi in lat.poset.intervals() if is_synchronous(lat, lo, hi))
        assert counts[n] == brute


def test_bicubic_counts_and_residual():
    out = solve(SystemConfig(Mode.BICUBIC_RESTRICTED, 30))
    counts = out.intervals_at_unit().constant_values()
    assert counts[1:] == [bicubic_count(n) for n in range(1, 30)]
    assert residual(out.intervals_at_unit(), BICUBIC_RESIDUAL_COEFFS).is_zero()


def test_bicubic_counts_intervals_of_full_weight_degree():
    # weight degree dx + dy + dybar reaches n - 1 exactly on these intervals
    out = solve(SystemConfig(Mode.BICUBIC_RESTRICTED, 7))
    counts = out.intervals_at_unit().constant_values()
    for n in range(1, 7):
        brute = sum(
            1 for r in interval_statistics(n, with_q=False)
            if r.dx + r.dy + r.dybar == n - 1
        )
        assert counts[n] == brute


def test_residual_detects_corruption():
    out = solve(SystemConfig(Mode.SYNCHRONOUS_RESTRICTED, 6))
    f = out.intervals_at_unit()
    coeffs = list(f.coeffs)
    coeffs[3] = coeffs[3] + 1
    assert not residual(SeriesT(f.vars, f.N, coeffs), SYNC_RESIDUAL_COEFFS).is_zero()


def test_residual_on_truncated_equation_directly():
    # F = t + t^2 solves nothing: check the detector is not trivially zero
    t_only = SeriesT((), 4, [MultiPoly.constant((), c) for c in (0, 1, 1, 0)])
    assert not residual(t_only, SYNC_RESIDUAL_COEFFS).is_zero()


@pytest.mark.parametrize("N, expected", [
    (1, ["u^2 + 2 u + 1"]),
    (2, ["u^2 + 2 u + 1", "3 u + 8"]),
])
def test_residual_reads_coefficient_arrays_longer_than_the_series(N, expected):
    # F = u + 2t; c_0 = 1 + 4t + 5t^2, c_1 = 2 - t + 7t^2 + 9t^3, c_2 = 1 + 3t^2:
    # c_0 + c_1 F + c_2 F^2 = (u^2 + 2u + 1) + (3u + 8) t + O(t^2)
    u = MultiPoly.variable(("u",), "u")
    f = SeriesT(("u",), N, [u, MultiPoly.constant(("u",), 2)][:N])
    got = residual(f, ((1, 4, 5), (2, -1, 7, 9), (1, 0, 3)))
    assert [str(c) for c in got.coeffs] == expected
