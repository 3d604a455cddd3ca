"""Shared test utilities: random Hasse diagrams, closed-form oracles, the
per-tree build of a rotation lattice and the variable z of the one-variable
test polynomials."""

from collections import Counter
from math import comb, factorial

from intervalence import FinitePoset, MultiPoly, canopy, encode, rotation_covers, sturm_sequence
from intervalence.poset import INTERVAL_VARS

Z = MultiPoly.variable(("z",), "z")


def sturm_negative_roots(f):
    """Distinct roots of ``f`` in (-inf, 0) by Sturm's theorem: the sign
    changes along ``sturm_sequence(f)`` at -inf minus those at 0, where ``f``
    must not vanish."""
    def changes(values):
        values = [v for v in values if v]
        return sum(a * b < 0 for a, b in zip(values, values[1:]))

    chain = sturm_sequence(f)
    degrees = [max(e for e, in p.terms) for p in chain]
    at_minus_inf = [p.terms[(d,)] * (-1) ** d for p, d in zip(chain, degrees)]
    return changes(at_minus_inf) - changes([p.terms.get((0,), 0) for p in chain])


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


def interval_poset_dual_commutes(p):
    """Int(P*) equals Int(P)* under the map (lo, hi) -> (hi, lo): relabelled
    that way, the covers of ``P.dual().interval_poset()`` are the covers of
    the dual of ``P.interval_poset()``."""
    dual_ip, dual_ivs = p.dual().interval_poset()
    ip, ivs = p.interval_poset()
    position = {iv: i for i, iv in enumerate(ivs)}
    flip = [position[(hi, lo)] for lo, hi in dual_ivs]
    relabelled = FinitePoset(dual_ip.m, [(flip[u], flip[v]) for u, v in dual_ip.covers])
    return relabelled == ip.dual()


def interval_degree_histogram(p):
    """Oracle for the interval kernel: ``DD_P`` summed one interval at a
    time from ``interval_degrees`` over ``intervals()``."""
    return MultiPoly(INTERVAL_VARS, Counter(p.interval_degrees(iv) for iv in p.intervals()))


def reference_lattice(n):
    """Oracle for ``tamari_lattice``: ``(trees, index, canopies, poset)``
    from the per-tree definitions.  Every tree of size n, recursively by the
    sizes of its children, sorted by ``encode``; the covers of each from
    ``rotation_covers`` and a lookup of their indices; the canopies from
    ``canopy``."""
    by_size = [[None]]
    for s in range(1, n + 1):
        by_size.append([(left, right) for i in range(s)
                        for left in by_size[i] for right in by_size[s - 1 - i]])
    trees = tuple(sorted(by_size[n], key=encode))
    index = {t: i for i, t in enumerate(trees)}
    covers = [(i, index[c]) for i, t in enumerate(trees) for c in rotation_covers(t)]
    return trees, index, tuple(map(canopy, trees)), FinitePoset(len(trees), covers)


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
