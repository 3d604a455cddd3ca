"""
Valence polynomials of finite posets
====================================

A finite poset P has a two-variable enumerator recording the in- and
out-degrees of its Hasse diagram,

    D_P(a, abar) = sum over elements of a^(upper covers) * abar^(lower covers),

and a four-variable enumerator over its intervals [u, v],

    DD_P(x, y, ybar, xbar) = sum over intervals of
        x^(covers of u below v) * y^(covers of v) *
        ybar^(lower covers of u) * xbar^(lower covers of v above u).

This script builds both on small posets and walks through the structural
identities that make them useful.
"""

from intervalence import FinitePoset, MultiPoly

# ----------------------------------------------------------------------
# The pentagon: a five-element lattice with sides of different lengths.
# Covers are pairs of element indices; the constructor checks that the
# input is a genuine Hasse diagram (no loops, cycles, or implied covers).

pentagon = FinitePoset(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])
print("pentagon covers:", list(pentagon.covers))
print("D =", pentagon.valence_polynomial())
print("DD =", pentagon.interval_valence_polynomial())
print("intervals:", len(pentagon.intervals()))

# ----------------------------------------------------------------------
# Duality.  Reversing the order exchanges a with abar, and in the interval
# enumerator it exchanges x with xbar and y with ybar simultaneously.

dual = pentagon.dual()
print("\nD of the dual:", dual.valence_polynomial())
swapped = pentagon.interval_valence_polynomial().permute_vars(
    {"x": "xbar", "xbar": "x", "y": "ybar", "ybar": "y"})
print("DD duality holds:", dual.interval_valence_polynomial() == swapped)

# ----------------------------------------------------------------------
# Products.  Both enumerators are multiplicative: an interval of P x Q is a
# pair of intervals, and cover counts add up, so monomials multiply.

chain = FinitePoset(2, [(0, 1)])
grid = chain.product(chain)
print("\nDD of a 2-chain:", chain.interval_valence_polynomial())
print("DD of the 2x2 grid:", grid.interval_valence_polynomial())
print("multiplicativity holds:",
      grid.interval_valence_polynomial()
      == chain.interval_valence_polynomial() ** 2)

# ----------------------------------------------------------------------
# The interval poset.  Intervals of P ordered componentwise form a new
# poset Int(P); setting x = y = a and ybar = xbar = abar in DD_P recovers
# the two-variable enumerator of Int(P), because the four statistics of an
# interval are exactly the in- and out-degrees of Int(P) split by which
# endpoint moves.

interval_poset, intervals = pentagon.interval_poset()
a = MultiPoly.variable(("a", "abar"), "a")
abar = MultiPoly.variable(("a", "abar"), "abar")
specialized = pentagon.interval_valence_polynomial().substitute(
    {"x": a, "y": a, "ybar": abar, "xbar": abar}, ("a", "abar"))
print("\nD of Int(pentagon):", interval_poset.valence_polynomial())
print("specialization matches:",
      specialized == interval_poset.valence_polynomial())

# Int commutes with duality, by an explicit map: an interval (lo, hi) of the
# dual is the interval (hi, lo) of the pentagon, and relabelling the covers
# of Int(dual) that way gives exactly the covers of dual(Int).
dual_interval_poset, dual_intervals = pentagon.dual().interval_poset()
position = {iv: i for i, iv in enumerate(intervals)}
flip = [position[(hi, lo)] for lo, hi in dual_intervals]
relabelled = FinitePoset(dual_interval_poset.m,
                         [(flip[u], flip[v]) for u, v in dual_interval_poset.covers])
print("Int(dual) = dual(Int) under (lo, hi) -> (hi, lo):",
      relabelled == interval_poset.dual())
