"""Per-module probes: each group runs in a fresh interpreter, so caches start cold.

    python3 bench/probes.py GROUP --seed S [--smoke]

prints one JSON object ``{"metrics", "missing", "failures", "notes"}``.
A probe calls only public functions and consumes every result inside its
timed region.  When a public function it needs is gone, the probe's metrics
are reported as ``null`` and the function is named under ``missing``; a
missing probe never reads as 0 s.

``TARGETS`` records, for each per-module metric, its unit and the end-to-end
metric and workload it is expected to move.
"""

import argparse
import importlib
import json
import random
import sys
import time

from checks import a000260

SIZES = {
    "full": {"lattice_n": 9, "csv_n": 8, "q_n": 7, "poset_n": 8,
             "full_N": 12, "q_N": 10, "canopy_N": 18, "verify_max_n": 8},
    "smoke": {"lattice_n": 5, "csv_n": 5, "q_n": 5, "poset_n": 5,
              "full_N": 6, "q_N": 6, "canopy_N": 6, "verify_max_n": 5},
}

SUITE_IDS = ("ternary", "xxbar", "triangle", "sync", "degree", "distribution",
             "conjectures", "realroots")

TARGETS = {  # metric: (unit, end-to-end metric it should move, on which workload)
    "cli.import_s": ("s", "setup_s", "all"),
    "tamari.lattice_build_s": ("s", "setup_s", "enumerate"),
    "tamari.interval_stats_s": ("s", "wall_s", "enumerate"),
    "tamari.intervals_per_s": ("1/s", "wall_s", "enumerate"),
    "tamari.intervals": ("count", "peak_rss_mb", "enumerate"),
    "tamari.ivp_s": ("s", "wall_s", "enumerate"),
    "tamari.csv_s": ("s", "wall_s", "enumerate"),
    "tamari.stats_q_s": ("s", "wall_s", "verify"),
    "poset.interval_degrees_s": ("s", "wall_s", "enumerate"),
    "poset.ivp_s": ("s", "wall_s", "enumerate"),
    "polynomial.mul_s": ("s", "wall_s", "series"),
    "polynomial.mul_terms": ("count", "wall_s", "series"),
    "polynomial.substitute_s": ("s", "wall_s", "series"),
    "polynomial.divided_difference_s": ("s", "wall_s", "series"),
    "polynomial.render_s": ("s", "wall_s", "series"),
    "series.solve_full_s": ("s", "wall_s", "series"),
    "series.solve_q_s": ("s", "wall_s", "series"),
    "series.solve_canopy_s": ("s", "wall_s", "series"),
    "series.full_terms": ("count", "wall_s", "series"),
    "series.q_terms": ("count", "wall_s", "series"),
    "series.canopy_terms": ("count", "wall_s", "series"),
    **{f"verify.suite_s.{sid}": ("s", "wall_s", "verify") for sid in SUITE_IDS},
    "verify.shared_enum_s": ("s", "wall_s", "verify"),
}


class Missing(Exception):
    """A public function a probe needs does not exist."""


def need(module_name, attr):
    module = importlib.import_module(f"intervalence.{module_name}")
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise Missing(f"{module_name}.{attr}")
    return obj


def consume(result):
    """Force a lazy result: a generator or iterator is drained into a list."""
    if hasattr(result, "__next__"):
        return list(result)
    return result


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = consume(fn(*args, **kwargs))
    return time.perf_counter() - start, result


def term_count(p):
    return len(p.coefficients())


class Probe:
    def __init__(self):
        self.metrics = {}
        self.missing = []
        self.failures = []
        self.notes = {}

    def step(self, names, body):
        """Run one probe step; on a missing function mark ``names`` missing."""
        try:
            body()
        except Missing as exc:
            self.missing.append(str(exc))
            for name in names:
                self.metrics[name] = None

    def expect(self, what, got, want):
        if got != want:
            self.failures.append(f"{what}: got {got}, expected {want}")


def probe_import(p, sizes, seed):
    start = time.perf_counter()
    import intervalence.cli  # noqa: F401
    p.metrics["cli.import_s"] = time.perf_counter() - start


def probe_tamari(p, sizes, seed):
    n = sizes["lattice_n"]

    def body():
        lattice = need("tamari", "tamari_lattice")
        stats = need("tamari", "interval_statistics")
        p.metrics["tamari.lattice_build_s"], _ = timed(lattice, n)
        secs, records = timed(stats, n)
        p.metrics["tamari.interval_stats_s"] = secs
        p.metrics["tamari.intervals"] = len(records)
        p.metrics["tamari.intervals_per_s"] = len(records) / secs
        p.expect(f"interval_statistics({n}) count", len(records), a000260(n))

    p.step(["tamari.lattice_build_s", "tamari.interval_stats_s",
            "tamari.intervals", "tamari.intervals_per_s"], body)

    def ivp():
        secs, poly = timed(need("tamari", "interval_valence_polynomial"), n)
        p.metrics["tamari.ivp_s"] = secs
        p.expect(f"interval_valence_polynomial({n}) total", sum(poly.coefficients()),
                 a000260(n))

    p.step(["tamari.ivp_s"], ivp)


def probe_csv(p, sizes, seed):
    n = sizes["csv_n"]

    def body():
        records = consume(need("tamari", "interval_statistics")(n))
        secs, text = timed(need("tamari", "stats_to_csv"), records)
        p.metrics["tamari.csv_s"] = secs
        rows = text.count("\n") - 1 if isinstance(text, str) else len(text) - 1
        p.expect(f"stats_to_csv rows at n={n}", rows, a000260(n))

    p.step(["tamari.csv_s"], body)


def probe_stats_q(p, sizes, seed):
    n = sizes["q_n"]

    def body():
        need("tamari", "tamari_lattice")(n)
        secs, records = timed(need("tamari", "interval_statistics"), n, with_q=True)
        p.metrics["tamari.stats_q_s"] = secs
        p.expect(f"interval_statistics({n}, with_q=True) count", len(records),
                 a000260(n))

    p.step(["tamari.stats_q_s"], body)


def probe_poset(p, sizes, seed):
    n = sizes["poset_n"]
    state = {}

    def build():
        state["poset"] = need("tamari", "tamari_lattice")(n).poset

    p.step(["poset.interval_degrees_s", "poset.ivp_s"], build)
    if "poset" not in state:
        return
    poset = state["poset"]

    def degrees():
        intervals = consume(need("poset", "FinitePoset.intervals")(poset))
        degrees_of = need("poset", "FinitePoset.interval_degrees")
        start = time.perf_counter()
        out = [degrees_of(poset, iv) for iv in intervals]
        p.metrics["poset.interval_degrees_s"] = time.perf_counter() - start
        p.expect(f"intervals of the n={n} lattice", len(out), a000260(n))

    def ivp():
        secs, poly = timed(need("poset", "FinitePoset.interval_valence_polynomial"), poset)
        p.metrics["poset.ivp_s"] = secs
        p.expect(f"FinitePoset.interval_valence_polynomial total at n={n}",
                 sum(poly.coefficients()), a000260(n))

    p.step(["poset.interval_degrees_s"], degrees)
    p.step(["poset.ivp_s"], ivp)


def probe_polynomial(p, sizes, seed):
    """Operands are frozen from CANOPY and FULL solves outside the timed
    region; the seed draws which coefficient pairs and orders are used."""
    rng = random.Random(seed)
    state = {}

    def operands():
        solve = need("series", "solve")
        config = need("series", "SystemConfig")
        mode = need("series", "Mode")
        state["canopy"] = solve(config(mode.CANOPY, sizes["canopy_N"])).intervals
        state["full"] = solve(config(mode.FULL, sizes["full_N"])).intervals
        state["variable"] = need("polynomial", "MultiPoly.variable")
        state["dd"] = need("polynomial", "divided_difference")

    names = ["polynomial.mul_s", "polynomial.mul_terms", "polynomial.substitute_s",
             "polynomial.divided_difference_s", "polynomial.render_s"]
    p.step(names, operands)
    if "full" not in state:
        return
    canopy, full = state["canopy"], state["full"]

    top = sizes["canopy_N"] - 1
    pairs = []
    for _ in range(8):
        k = rng.randint(max(2, top - 3), top)
        i = rng.randint(1, k - 1)
        pairs.append((i, k - i))
    p.notes["mul_pairs"] = pairs
    mul_s = 0.0
    mul_terms = 0
    for i, j in pairs:
        a, b = canopy.coefficient(i), canopy.coefficient(j)
        start = time.perf_counter()
        prod = a * b
        mul_s += time.perf_counter() - start
        mul_terms += term_count(prod)
    p.metrics["polynomial.mul_s"] = mul_s
    p.metrics["polynomial.mul_terms"] = mul_terms

    top = sizes["full_N"] - 1
    orders = [rng.randint(max(1, top - 3), top) for _ in range(3)]
    p.notes["substitute_orders"] = orders
    u = state["variable"](full.vars, "u")
    dd = state["dd"]
    sub_s = dd_s = 0.0
    for k in orders:
        prev = full.coefficient(k)
        start = time.perf_counter()
        p_u1 = prev.substitute({"v": 1})
        p_11 = p_u1.substitute({"u": 1})
        p_uu = prev.substitute({"v": u})
        sub_s += time.perf_counter() - start
        start = time.perf_counter()
        dd1 = dd(p_u1, p_11, "u")
        dd2 = dd(p_uu, p_u1, "u")
        dd_s += time.perf_counter() - start
        p.expect(f"divided differences at t^{k} times (u - 1) restore their numerators",
                 (dd1 * (u - 1) == p_u1 - p_11, dd2 * (u - 1) == p_uu - p_u1), (True, True))
    p.metrics["polynomial.substitute_s"] = sub_s
    p.metrics["polynomial.divided_difference_s"] = dd_s

    start = time.perf_counter()
    rendered = len(json.dumps(full.to_json())) + len(str(full))
    p.metrics["polynomial.render_s"] = time.perf_counter() - start
    p.notes["rendered_chars"] = rendered


def _probe_solve(label, mode_name, size_key):
    def probe(p, sizes, seed):
        N = sizes[size_key]

        def body():
            solve = need("series", "solve")
            config = need("series", "SystemConfig")(need("series", "Mode")(mode_name), N)
            secs, out = timed(solve, config)
            p.metrics[f"series.solve_{label}_s"] = secs
            p.metrics[f"series.{label}_terms"] = term_count(out.intervals.coefficient(N - 1))
            total = sum(out.intervals.coefficient(N - 1).coefficients())
            p.expect(f"{mode_name} N={N} intervals at t^{N - 1}", total, a000260(N - 1))

        p.step([f"series.solve_{label}_s", f"series.{label}_terms"], body)
    return probe


def probe_verify(p, sizes, seed):
    """Each suite in CLI order in one process; spans around the tamari
    public functions charge the shared enumeration to the suite that ran it."""
    import tracer
    max_n = sizes["verify_max_n"]
    names = [f"verify.suite_s.{sid}" for sid in SUITE_IDS] + ["verify.shared_enum_s"]

    def body():
        run_suites = need("verify", "run_suites")
        tr = tracer.Tracer("verify-probe")
        tracer.install(tr, modules=("tamari",))
        enum_s = {}
        for sid in SUITE_IDS:
            before = tr.outer_s.get("tamari", 0.0)
            start = time.perf_counter()
            try:
                reports = run_suites([sid], max_n)
            except ValueError:
                raise Missing(f"verify suite {sid}") from None
            p.metrics[f"verify.suite_s.{sid}"] = time.perf_counter() - start
            enum_s[sid] = tr.outer_s.get("tamari", 0.0) - before
            p.expect(f"verify suite {sid} status", [r.status for r in reports], ["pass"])
        payer = max(enum_s, key=enum_s.get)
        p.metrics["verify.shared_enum_s"] = enum_s[payer]
        p.notes["shared_enumeration_payer"] = payer
        p.notes["enumeration_s_by_suite"] = enum_s
        if tr.missing:
            p.notes["untraced"] = tr.missing

    p.step(names, body)


GROUPS = {
    "import": probe_import,
    "tamari": probe_tamari,
    "csv": probe_csv,
    "stats_q": probe_stats_q,
    "poset": probe_poset,
    "polynomial": probe_polynomial,
    "solve_full": _probe_solve("full", "full", "full_N"),
    "solve_q": _probe_solve("q", "q", "q_N"),
    "solve_canopy": _probe_solve("canopy", "canopy", "canopy_N"),
    "verify": probe_verify,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("group", choices=sorted(GROUPS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    p = Probe()
    GROUPS[args.group](p, SIZES["smoke" if args.smoke else "full"], args.seed)
    print(json.dumps({"metrics": p.metrics, "missing": p.missing,
                      "failures": p.failures, "notes": p.notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
