"""Shared test utilities: random Hasse diagrams and closed-form oracles."""

from collections import Counter
from math import comb, factorial

from intervalence import FinitePoset, MultiPoly
from intervalence.poset import INTERVAL_VARS


def random_poset(rng, max_m=6):
    """Random poset on a random number of elements, labelled by a linear
    extension.  Edges are drawn on index-increasing pairs, closed
    transitively, then reduced to covers, so the input is always a valid
    Hasse diagram."""
    m = rng.randint(1, max_m)
    rel = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                rel[i][j] = True
    for k in range(m):
        for i in range(m):
            if rel[i][k]:
                for j in range(m):
                    if rel[k][j]:
                        rel[i][j] = True
    covers = []
    for i in range(m):
        for j in range(i + 1, m):
            if rel[i][j] and not any(rel[i][k] and rel[k][j] for k in range(m)):
                covers.append((i, j))
    return FinitePoset(m, covers)


def interval_degree_histogram(p):
    """Oracle for the interval kernel: ``DD_P`` summed one interval at a
    time from ``interval_degrees`` over ``intervals()``."""
    return MultiPoly(INTERVAL_VARS, Counter(p.interval_degrees(iv) for iv in p.intervals()))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def interval_count(n):
    """Closed form for the number of intervals of the size-n lattice."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


def synchronous_count(n):
    """Closed form 2(3n)!/((2n+1)! (n+1)!) for equal-canopy intervals."""
    return 2 * factorial(3 * n) // (factorial(2 * n + 1) * factorial(n + 1))


def bicubic_count(n):
    """Closed form 3 * 2^(n-1) (2n)!/(n! (n+2)!): 1, 3, 12, 56, 288, ..."""
    return 3 * 2 ** (n - 1) * factorial(2 * n) // (factorial(n) * factorial(n + 2))


def motzkin(n):
    vals = [1]
    for k in range(n):
        nxt = vals[-1] + sum(vals[i] * vals[k - 1 - i] for i in range(k))
        vals.append(nxt)
    return vals[n]
