"""Span tracing of the package from outside, by wrapping its public functions.

``install`` replaces each public entry point listed in ``ENTRY_POINTS`` by a
wrapper that records a span (name, start, end, parent) around the call.  The
package itself is not modified; the wrappers are set on the module, on every
other package module or module-level dict that holds the same function
object, and on the class for methods.  An entry point that no longer exists
is recorded as missing instead of being skipped silently.

Every call is counted and timed in an aggregate per span name (count, total
and self seconds), and per module (self seconds, and outer seconds that count
a module's nested calls once).  Individual span records are kept for the first
``SPAN_CAP`` calls of each name, so a kernel called once per interval does not
hold a million records in memory.
"""

import functools
import importlib
import json
import time

SPAN_CAP = 200

# module -> public functions ("name") and methods ("Class.name") to wrap.
# Hot one-line predicates (leq, less, covers, __eq__, __hash__) are left out:
# they run inside the wrapped kernels and would only add wrapper cost.
ENTRY_POINTS = {
    "tamari": ("enumerate_trees", "tamari_lattice", "interval_statistics",
               "stats_to_csv", "interval_valence_polynomial",
               "valence_polynomial", "interval_canopy_word", "is_synchronous"),
    "poset": ("FinitePoset.up_set", "FinitePoset.intervals",
              "FinitePoset.interval_degrees", "FinitePoset.topological_order",
              "FinitePoset.valence_polynomial",
              "FinitePoset.interval_valence_polynomial",
              "FinitePoset.interval_poset", "are_isomorphic"),
    "polynomial": ("MultiPoly.__mul__", "MultiPoly.__add__", "MultiPoly.__sub__",
                   "MultiPoly.substitute", "MultiPoly.exact_div",
                   "MultiPoly.to_json", "MultiPoly.__str__", "divided_difference",
                   "SeriesT.__mul__", "SeriesT.substitute", "SeriesT.to_json",
                   "SeriesT.__str__", "UniPoly.from_multipoly", "sturm_sequence",
                   "squarefree_part", "all_roots_real_negative"),
    "series": ("solve", "residual", "check_alternative_decomposition",
               "check_bridge_identity"),
    "verify": ("run_suites", "check_ternary_symmetry", "check_x_xbar_conjecture",
               "check_support_triangle", "check_synchronous_theorem",
               "check_degree_properties", "check_distribution_equalities",
               "check_remaining_conjectures", "check_real_rootedness",
               "distribution_table", "brute_force_weights"),
    "cli": ("main",),
}


class Tracer:
    """Span recorder; one per process."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self.stats = {}
        self.missing = []
        # seconds inside each module, nested calls within it counted once
        self.outer_s = {}
        self._stack = []
        self._next_id = 0
        self._per_name = {}

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # [id, name, parent, start, time covered by children]
        frame = [self._next_id, name, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child = frame
        dur = end - start
        module = name.split(".", 1)[0]
        if self._stack:
            self._stack[-1][4] += dur
        if not self._stack or not self._stack[-1][1].startswith(module + "."):
            self.outer_s[module] = self.outer_s.get(module, 0.0) + dur
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = {"count": 0, "total_s": 0.0, "self_s": 0.0}
        agg["count"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child
        kept = self._per_name.get(name, 0)
        if kept < SPAN_CAP:
            self._per_name[name] = kept + 1
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "trace": self.trace_id, "start": start, "end": end})

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def module_self_s(self):
        """Self seconds summed per module (the span-name prefix)."""
        out = {}
        for name, agg in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + agg["self_s"]
        return out

    def dump(self, path, extra=None):
        doc = {"trace": self.trace_id, "missing": self.missing,
               "span_cap": SPAN_CAP, "stats": self.stats,
               "module_self_s": self.module_self_s(),
               "module_outer_s": self.outer_s, "spans": self.spans}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _package_namespaces():
    import intervalence
    spaces = [vars(intervalence)]
    for module in ENTRY_POINTS:
        spaces.append(vars(importlib.import_module(f"intervalence.{module}")))
    for ns in list(spaces):
        spaces.extend(v for v in ns.values() if isinstance(v, dict))
    return spaces


def install(tracer, modules=None):
    """Wrap the entry points of ``modules`` (default: all in ENTRY_POINTS)."""
    spaces = _package_namespaces()
    for module_name in modules or ENTRY_POINTS:
        module = importlib.import_module(f"intervalence.{module_name}")
        for entry in ENTRY_POINTS[module_name]:
            span_name = f"{module_name}.{entry}"
            owner_name, _, attr = entry.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None or isinstance(raw, (staticmethod, classmethod)):
                    tracer.missing.append(span_name)
                    continue
                setattr(owner, attr, tracer.wrap(span_name, raw))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                tracer.missing.append(span_name)
                continue
            wrapped = tracer.wrap(span_name, fn)
            for ns in spaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = wrapped
