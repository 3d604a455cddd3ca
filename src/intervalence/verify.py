"""Verification suites for the interval enumerators of Tamari lattices.

Each suite recomputes a stated property from scratch by exhaustive
enumeration at desk scale and returns a ``CheckReport``.  All arithmetic is
exact; a suite either passes or carries a concrete witness of the first
failure.  Reference counting sequences are computed from their closed
forms, cited by OEIS id, and the small reference coefficient tables were
cross-checked by hand against direct enumeration at n <= 3.
"""

import itertools
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from math import factorial

from . import tamari
from .polynomial import MultiPoly, all_roots_real_negative
from .poset import VALENCE_VARS
from .series import Mode, SystemConfig, solve


def _interval_count(n):
    """Intervals of the size-n lattice (OEIS A000260)."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


def _synchronous_count(n):
    """Synchronous intervals of size n (OEIS A000139)."""
    return 2 * factorial(3 * n) // (factorial(2 * n + 1) * factorial(n + 1))


def _bicubic_count(n):
    """Intervals of (x, y, ybar)-degree exactly n - 1 (OEIS A000257)."""
    return 3 * 2 ** (n - 1) * factorial(2 * n) // (factorial(n) * factorial(n + 2))


def _motzkin(n):
    """Motzkin number M_n (OEIS A001006), by the recurrence
    (k+2) M_k = (2k+1) M_(k-1) + 3(k-1) M_(k-2); M_(-1) is never read."""
    prev, cur = 0, 1
    for k in range(1, n + 1):
        prev, cur = cur, ((2 * k + 1) * cur + 3 * (k - 1) * prev) // (k + 2)
    return cur


# coefficient tables of the two-variable enumerator of the interval poset,
# displayed with the a-exponent increasing along rows and the abar-exponent
# decreasing down columns (origin at the lower left)
TRIANGLE_MATRICES = {
    1: [[1]],
    2: [[1, 1],
        [0, 1]],
    3: [[1, 3, 2],
        [0, 3, 3],
        [0, 0, 1]],
    4: [[1, 6, 11, 4],
        [0, 6, 16, 11],
        [0, 0, 6, 6],
        [0, 0, 0, 1]],
    5: [[1, 10, 35, 36, 9],
        [0, 10, 50, 86, 36],
        [0, 0, 20, 50, 35],
        [0, 0, 0, 10, 10],
        [0, 0, 0, 0, 1]],
}

# counts of intervals by (dy, dybar), same display orientation; the bottom
# row (dybar = 0) is the Narayana distribution
CANOPY_MATRICES = {
    1: [[1]],
    2: [[1, 0],
        [1, 1]],
    3: [[1, 0, 0],
        [3, 4, 0],
        [1, 3, 1]],
    4: [[1, 0, 0, 0],
        [6, 10, 0, 0],
        [6, 21, 10, 0],
        [1, 6, 6, 1]],
    5: [[1, 0, 0, 0, 0],
        [10, 20, 0, 0, 0],
        [20, 81, 49, 0, 0],
        [10, 65, 81, 20, 0],
        [1, 10, 20, 10, 1]],
}


@dataclass
class CheckReport:
    """Outcome of one verification suite."""

    check_id: str
    n_range: tuple
    status: str
    witness: 'str | None'
    wall_time: float
    details: dict = field(default_factory=dict)

    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return asdict(self)


SUITES = {}


def _suite(check_id, cap, n_lo=1):
    """Register a suite body under ``check_id`` in ``SUITES``.

    The body is called as ``body(n_hi, failures)`` with ``n_hi`` the
    requested ``n_max`` clamped to ``cap``; it appends a witness to
    ``failures`` for each broken property and returns its ``details``.  The
    registered ``check_*(n_max=cap)`` times the body and builds the report,
    whose n range is ``(n_lo, n_hi)``.  An empty range proves nothing, so
    the body is not called and the report's status is ``skip``.
    """
    def register(body):
        def check(n_max=cap):
            start = time.perf_counter()
            n_hi = min(n_max, cap)
            failures = []
            details = body(n_hi, failures) if n_hi >= n_lo else None
            status = "skip" if n_hi < n_lo else "fail" if failures else "pass"
            return CheckReport(check_id, (n_lo, n_hi), status,
                               failures[0] if failures else None,
                               round(time.perf_counter() - start, 3), details or {})

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        SUITES[check_id] = check
        return check
    return register


def distribution_table(histogram, stat_a, stat_b):
    """Counts of intervals by a pair of statistics, from a histogram that
    maps interval classes (``tamari.interval_histogram(n).counts``, or a
    ``Counter`` of records) to their numbers of intervals.  A statistic that
    a class lacks or holds as ``None`` (q past n = 7) is a ``ValueError``: a
    table keyed by ``None`` would pass any comparison without testing it."""
    if not isinstance(histogram, Mapping):
        raise TypeError(f"a histogram must be a mapping, got {type(histogram).__name__}")
    out = {}
    for c, k in histogram.items():
        key = (getattr(c, stat_a, None), getattr(c, stat_b, None))
        if None in key:
            name = stat_a if key[0] is None else stat_b
            raise ValueError(f"statistic {name!r} is unknown or not computed for {c}")
        out[key] = out.get(key, 0) + k
    return out


def _count(histogram, predicate):
    """Number of intervals whose class satisfies ``predicate``."""
    return sum(k for c, k in histogram.items() if predicate(c))


def _class_witness(n, c, k):
    """Names n, the statistics of interval class ``c`` and its count ``k``."""
    return f"n={n} {c} ({k} interval{'s' if k != 1 else ''})"


def _differences(table, base):
    """The cells where two pair tables differ, each with both counts."""
    return {cell: (table.get(cell, 0), base.get(cell, 0))
            for cell in sorted(table.keys() | base.keys())
            if table.get(cell, 0) != base.get(cell, 0)}


def table_to_matrix(table, n):
    """Render a pair table on the n x n grid: first statistic increasing
    left to right, second decreasing top to bottom."""
    if not isinstance(table, Mapping):
        raise TypeError(f"a pair table must be a mapping, got {type(table).__name__}")
    return [[table.get((c, n - 1 - r), 0) for c in range(n)] for r in range(n)]


def interval_triangle(n):
    """The two-variable view of the size-n lattice: ``DD_n(a, a, abar, abar)``,
    the valence polynomial of its interval poset, and that polynomial's
    coefficient matrix on the n x n grid (``table_to_matrix`` layout)."""
    a = MultiPoly.variable(VALENCE_VARS, "a")
    abar = MultiPoly.variable(VALENCE_VARS, "abar")
    two = tamari.interval_valence_polynomial(n).substitute(
        {"x": a, "y": a, "ybar": abar, "xbar": abar}, VALENCE_VARS)
    return two, table_to_matrix(two.terms, n)


def _check_restricted_counts(mode, counts, failures):
    """Cross-check the counts enumerated for n = 1 .. len(counts) against
    the one-variable restricted catalytic system of ``mode``."""
    solved = solve(SystemConfig(mode, len(counts) + 1))
    series_counts = solved.intervals_at_unit().constant_values()[1:]
    if series_counts != counts:
        failures.append(f"restricted system gives {series_counts}, enumeration gives {counts}")


def brute_force_weights(n):
    """The (x, y, ybar) enumerator of all intervals, xbar projected to 1."""
    p = tamari.interval_valence_polynomial(n)
    return p.substitute({"xbar": 1}, ("x", "y", "ybar"))


@_suite("ternary", cap=8)
def check_ternary_symmetry(n_max, failures):
    """Full S3 symmetry of the enumerator on {x, y, ybar} once xbar = 1,
    and on {y, ybar, xbar} once x = 1, checked on the two transpositions
    that generate S3."""
    for n in range(1, n_max + 1):
        p = tamari.interval_valence_polynomial(n)
        for kept, (u, v, w) in (("xbar", ("x", "y", "ybar")), ("x", ("y", "ybar", "xbar"))):
            proj = p.substitute({kept: 1}, (u, v, w))
            for swap in ({u: v, v: u}, {v: w, w: v}):
                if not proj.is_symmetric(swap):
                    failures.append(f"n={n}: {kept}=1 projection not invariant under {swap}")


@_suite("xxbar", cap=8)
def check_x_xbar_conjecture(n_max, failures):
    """Invariance of the full four-variable enumerator under swapping x with
    xbar alone, and y with ybar alone (conjectural; verified exhaustively)."""
    for n in range(1, n_max + 1):
        p = tamari.interval_valence_polynomial(n)
        if not p.is_symmetric({"x": "xbar", "xbar": "x"}):
            failures.append(f"conjecture counterexample: n={n}, x <-> xbar changes the enumerator")
        if not p.is_symmetric({"y": "ybar", "ybar": "y"}):
            failures.append(f"conjecture counterexample: n={n}, y <-> ybar changes the enumerator")


@_suite("triangle", cap=6)
def check_support_triangle(n_max, failures):
    """Support of the two-variable enumerator of the interval poset: the
    staircase triangle i + j >= n - 1 inside the (n-1) x (n-1) box, with the
    full coefficient matrices pinned for n <= 5."""
    matrices = {}
    for n in range(1, n_max + 1):
        two, matrix = interval_triangle(n)
        expected = {(i, j) for i in range(n) for j in range(n) if i + j >= n - 1}
        got = two.support()
        if got != expected:
            failures.append(f"n={n}: support {sorted(got)} differs from triangle")
        total = sum(two.terms.values())
        if total != _interval_count(n):
            failures.append(f"n={n}: coefficient sum {total} != interval count")
        matrices[str(n)] = matrix
        if n in TRIANGLE_MATRICES and matrix != TRIANGLE_MATRICES[n]:
            failures.append(f"n={n}: coefficient matrix {matrix} != reference")
    return {"matrices": matrices}


@_suite("sync", cap=7)
def check_synchronous_theorem(n_max, failures):
    """Equal canopies happen exactly at (y, ybar)-degree n - 1, and the
    synchronous counts match both the closed form and the one-variable
    restricted system."""
    counts = []
    for n in range(1, n_max + 1):
        histogram = tamari.interval_histogram(n).counts
        for c, k in histogram.items():
            if c.sync != (c.dy + c.dybar == n - 1):
                failures.append(f"{_class_witness(n, c, k)}: sync={c.sync} "
                                f"but dy+dybar={c.dy + c.dybar}")
        sync_count = _count(histogram, lambda c: c.sync)
        counts.append(sync_count)
        if sync_count != _synchronous_count(n):
            failures.append(f"n={n}: {sync_count} synchronous intervals, "
                            f"expected {_synchronous_count(n)}")
    _check_restricted_counts(Mode.SYNCHRONOUS_RESTRICTED, counts, failures)
    return {"counts": counts}


@_suite("degree", cap=7)
def check_degree_properties(n_max, failures):
    """Degree-zero characterisations, the five pair bounds, the lower bound
    dx + dy + dybar >= n - 1 and the counts on its boundary."""
    bicubic = []
    for n in range(1, n_max + 1):
        histogram = tamari.interval_histogram(n).counts
        for c, k in histogram.items():
            where = _class_witness(n, c, k)
            if (c.dx == 0) != c.diagonal or (c.dxbar == 0) != c.diagonal:
                failures.append(f"{where}: dx/dxbar vanishing does not match lo == hi")
            if (c.dy == 0) != c.hi_maximal:
                failures.append(f"{where}: dy = 0 does not match hi maximal")
            if (c.dybar == 0) != c.lo_minimal:
                failures.append(f"{where}: dybar = 0 does not match lo minimal")
            pairs = ((c.dx, c.dybar), (c.dy, c.dxbar), (c.dx, c.dy),
                     (c.dxbar, c.dybar), (c.dy, c.dybar))
            if any(s + t > n - 1 for s, t in pairs):
                failures.append(f"{where}: a pair degree exceeds n - 1")
            if c.dx + c.dy + c.dybar < n - 1:
                failures.append(f"{where}: dx+dy+dybar = {c.dx + c.dy + c.dybar} < n - 1")
        on_bound = _count(histogram, lambda c: c.dx + c.dy + c.dybar == n - 1)
        bicubic.append(on_bound)
        if on_bound != _bicubic_count(n):
            failures.append(f"n={n}: {on_bound} intervals on the (x,y,ybar) boundary, "
                            f"expected {_bicubic_count(n)}")
    _check_restricted_counts(Mode.BICUBIC_RESTRICTED, bicubic, failures)
    return {"bicubic_counts": bicubic}


@_suite("distribution", cap=7)
def check_distribution_equalities(n_max, failures):
    """Joint distribution identities: the pair tables forced by the ternary
    symmetries, the canopy table against (dy, dybar), the printed tables for
    n <= 5, and the q tables (q, dy) == (q, dybar)."""
    matrices = {}
    for n in range(1, n_max + 1):
        histogram = tamari.interval_histogram(n).counts
        base = distribution_table(histogram, "dy", "dybar")
        same = {
            "(dx,dy)": distribution_table(histogram, "dx", "dy"),
            "(dx,dybar)": distribution_table(histogram, "dx", "dybar"),
            "(dybar,dxbar)": distribution_table(histogram, "dybar", "dxbar"),
            "(dy,dxbar)": distribution_table(histogram, "dy", "dxbar"),
            "transpose": {(j, i): c for (i, j), c in base.items()},
            "canopy (ll,rr)": distribution_table(histogram, "ll", "rr"),
        }
        for label, table in same.items():
            if table != base:
                failures.append(f"n={n}: {label} table differs from (dy,dybar) "
                                f"at cells {_differences(table, base)}")
        matrix = table_to_matrix(base, n)
        matrices[str(n)] = matrix
        if n in CANOPY_MATRICES and matrix != CANOPY_MATRICES[n]:
            failures.append(f"n={n}: (dy,dybar) matrix {matrix} != reference")
        qy = distribution_table(histogram, "q", "dy")
        qybar = distribution_table(histogram, "q", "dybar")
        if qy != qybar:
            failures.append(f"n={n}: (q,dy) table differs from (q,dybar) "
                            f"at cells {_differences(qy, qybar)}")
    return {"matrices": matrices}


@_suite("conjectures", cap=7)
def check_remaining_conjectures(n_max, failures):
    """Exhaustive evidence for the open statements: only diagonal intervals
    reach total degree n - 1; the doubly-extremal intervals are counted by
    Motzkin numbers, form an antichain, and the two companion
    boundary counts agree."""
    motzkin = []
    for n in range(1, n_max + 1):
        lat = tamari.tamari_lattice(n)
        histogram = tamari.interval_histogram(n)
        counts = histogram.counts
        for c, k in counts.items():
            if c.dx + c.dy + c.dybar + c.dxbar == n - 1 and not c.diagonal:
                failures.append(f"conjecture counterexample: {_class_witness(n, c, k)} "
                                f"has total degree n-1 but is not diagonal")
        simple = _count(counts, lambda c: c.dx + c.dy + c.dybar + c.dxbar == n - 1)
        if simple != len(lat.trees):
            failures.append(f"conjecture counterexample: n={n}, {simple} intervals of "
                            f"total degree n-1 against {len(lat.trees)} diagonal intervals")
        extremal = _count(counts, lambda c: c.dx + c.dy == n - 1 == c.dxbar + c.dybar)
        motzkin.append(extremal)
        if extremal != _motzkin(n - 1):
            failures.append(f"conjecture counterexample: n={n}, {extremal} "
                            f"doubly-extremal intervals, Motzkin predicts {_motzkin(n - 1)}")
        leq = lat.poset.leq
        for (lo1, hi1), (lo2, hi2) in itertools.combinations(histogram.extremal, 2):
            if (leq(lo1, lo2) and leq(hi1, hi2)) or (leq(lo2, lo1) and leq(hi2, hi1)):
                failures.append(f"conjecture counterexample: n={n}, extremal intervals "
                                f"({lo1},{hi1}) and ({lo2},{hi2}) are comparable")
        left = _count(counts, lambda c: c.dx + c.dybar == n - 1)
        right = _count(counts, lambda c: c.dxbar + c.dy == n - 1)
        if left != right:
            failures.append(f"conjecture counterexample: n={n}, boundary counts "
                            f"(x,ybar)={left} and (xbar,y)={right} differ")
    return {"motzkin_counts": motzkin}


@_suite("realroots", cap=7, n_lo=2)
def check_real_rootedness(n_max, failures):
    """Real-rootedness of the one-variable specializations z/1/1/1, z/z/1/1
    and z/z/z/1 of (x, y, ybar, xbar): after factoring out the power of z,
    all roots must be real and negative.  Also reports the distribution of
    dx on the dx + dy = n - 1 boundary."""
    specializations = {}
    facet = {}
    z = MultiPoly.variable(("z",), "z")
    for n in range(2, n_max + 1):
        p = tamari.interval_valence_polynomial(n)
        for label, bindings in (
                ("z,1,1,1", {"x": z, "y": 1, "ybar": 1, "xbar": 1}),
                ("z,z,1,1", {"x": z, "y": z, "ybar": 1, "xbar": 1}),
                ("z,z,z,1", {"x": z, "y": z, "ybar": z, "xbar": 1})):
            f = p.substitute(bindings, ("z",))
            k = min(e for e, in f.terms)
            reduced = MultiPoly(("z",), {(e - k,): c for (e,), c in f.terms.items()})
            ok = all_roots_real_negative(reduced)
            specializations[f"n={n} ({label})"] = {
                "polynomial": str(f), "zero_root_order": k, "real_rooted": ok}
            if not ok:
                failures.append(f"n={n}: specialization ({label}) = {f} "
                                f"has a nonreal or nonnegative root")
        table = distribution_table(tamari.interval_histogram(n).counts, "dx", "dy")
        facet[str(n)] = [table.get((i, n - 1 - i), 0) for i in range(n)]
    return {"specializations": specializations, "facet_dx_distribution": facet}


def run_suites(suite_ids, n_max):
    """Run the named suites (or all of them) and collect the reports.

    ``suite_ids`` is one suite name, a list of names, or ``None``/``"all"``;
    ``n_max`` is an int (a bool is not)."""
    if type(n_max) is not int:
        raise TypeError(f"n_max must be an int, got {type(n_max).__name__}")
    if suite_ids in (None, "all") or suite_ids == ["all"]:
        suite_ids = list(SUITES)
    elif isinstance(suite_ids, str):
        suite_ids = [suite_ids]
    unknown = [s for s in suite_ids if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; available: {sorted(SUITES)}")
    return [SUITES[s](n_max) for s in suite_ids]


def summarize_reports(reports):
    lines = []
    for rep in reports:
        if not isinstance(rep, CheckReport):
            raise TypeError(f"expected CheckReport records, got {type(rep).__name__}")
        lo, hi = rep.n_range
        line = f"{rep.status.upper():4s} {rep.check_id:13s} n={lo}..{hi} ({rep.wall_time}s)"
        if rep.witness:
            line += f"\n     witness: {rep.witness}"
        lines.append(line)
    return "\n".join(lines)
