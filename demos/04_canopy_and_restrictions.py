"""
Canopy tables and restricted interval families
==============================================

Two surprising facts about the interval statistics:

1. the joint distribution of (dy, dybar) equals the joint distribution of
   the canopy letter counts (#LL - 1, #RR - 1) -- a purely combinatorial
   coincidence of tables, realized by a dedicated one-catalytic system;
2. two natural interval families have algebraic generating functions,
   pinned by a cubic and a quadratic equation with integer coefficients.

This script prints the tables and verifies both algebraic equations by
plugging the solved series into them and watching the residual vanish.
"""

from intervalence import Mode, SystemConfig, interval_statistics, residual, solve
from intervalence.series import BICUBIC_RESIDUAL_COEFFS, SYNC_RESIDUAL_COEFFS
from intervalence.tamari import interval_histogram
from intervalence.verify import distribution_table, table_to_matrix

# ----------------------------------------------------------------------
# The two tables, printed with the first statistic increasing rightward
# and the second increasing upward.

for n in range(2, 6):
    histogram = interval_histogram(n).counts
    by_degree = table_to_matrix(distribution_table(histogram, "dy", "dybar"), n)
    by_canopy = table_to_matrix(distribution_table(histogram, "ll", "rr"), n)
    print(f"n={n}: (dy, dybar) table == (LL, RR) table: {by_degree == by_canopy}")
    for row in by_degree:
        print("   ", row)

# ----------------------------------------------------------------------
# Synchronous intervals (equal canopies).  Their generating series F
# satisfies the cubic
#
#     t^2 F^3 + (6t^2 + 2t) F^2 + (12t^2 - 10t + 1) F + (8t^2 - t) = 0.

sync = solve(SystemConfig(Mode.SYNCHRONOUS_RESTRICTED, 10))
f = sync.intervals_at_unit()
print("\nsynchronous counts:", f.constant_values()[1:])
print("cubic residual is zero:", residual(f, SYNC_RESIDUAL_COEFFS).is_zero())

# ----------------------------------------------------------------------
# Intervals whose weight degree dx + dy + dybar is exactly n - 1 (it can
# never be smaller).  Their series satisfies the quadratic
#
#     16 t^2 F^2 + (24t^2 - 12t + 1) F + (9t^2 - t) = 0.

bicubic = solve(SystemConfig(Mode.BICUBIC_RESTRICTED, 10))
g = bicubic.intervals_at_unit()
print("\nminimal-degree counts:", g.constant_values()[1:])
print("quadratic residual is zero:", residual(g, BICUBIC_RESIDUAL_COEFFS).is_zero())

# Cross-check the first counts against the raw records.
for n in range(1, 7):
    brute = sum(1 for r in interval_statistics(n, with_q=False)
                if r.dx + r.dy + r.dybar == n - 1)
    assert brute == g.constant_values()[n]
print("counts match enumeration for n <= 6")
