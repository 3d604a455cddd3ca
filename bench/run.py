"""Benchmark of intervalence's two routes: lattice enumeration and catalytic series.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py --self-test

Workloads (inputs are fixed at paper scale; the program is deterministic):

- ``enumerate``: ``poly --n 9`` then ``table --n 8 --format csv``; the
  per-interval kernel of ``tamari``/``poset`` and the records it retains.
- ``series``: ``series --mode full --N 12 --format json``, ``series --mode q
  --N 10`` and the library call ``solve(SystemConfig(Mode.CANOPY, 18))``;
  the ``polynomial`` layer driven by ``series.solve``.
- ``verify``: ``verify --suite all --max-n 8 --format json``; many small
  reads of cached n <= 8 enumerations, the q-chain path and Sturm code.

Every command runs as a fresh interpreter, one at a time, from this single
process (no threads).  With ``--trace 0`` the run repeats passes through the
workload's commands for ``--seconds``, timing the workload's set-up in a fresh
interpreter before each pass (at least seven times).  It reports ``wall_s``
and ``cpu_s`` as the mean over the passes, ``peak_rss_mb`` and ``setup_s`` as
medians.  Peak RSS is read per child from ``os.wait4``.  With ``--trace 1``
it alternates plain and traced passes (spans around the package's public
functions, see ``tracer.py``) for half of ``--seconds``, writes the span file
of the last traced pass under ``.bench_out/`` and runs the per-module probes
of ``probes.py``; it reports those metrics and the tracing overhead, traced
over plain median pass time.

Every output is checked outside the timed region: stdout digests against
digests frozen from the seed commit (``reference.json``; verify's per-suite
``wall_time`` is masked first) and cross-route checks in ``checks.py``.  A
failed operation is a nonzero exit, a digest mismatch or a failed check;
``fail_frac`` is failed over attempted operations.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs the same workloads at n = 5, N = 6.
"""

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import probes

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"

# a run that has not finished by then stops starting new work
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 7
MIN_PASSES = 3
IMPORT_REPEATS = 3

SIZES = {
    "full": {"poly_n": 9, "csv_n": 8, "full_N": 12, "q_N": 10, "canopy_N": 18,
             "verify_max_n": 8},
    "smoke": {"poly_n": 5, "csv_n": 5, "full_N": 6, "q_N": 6, "canopy_N": 6,
              "verify_max_n": 5},
}

WORKLOADS = ("enumerate", "series", "verify")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# On a shared 2-vCPU Xeon VM the CPU speed swings by about 30% between states
# that last seconds, so the median of a few passes flips between them while
# the mean over all passes integrates across them.  There, on ten seeds, the
# run-to-run spread of series wall_s was 0.23 with the per-run median and 0.15
# with the mean.
AGGREGATE = {"wall_s": statistics.fmean, "cpu_s": statistics.fmean,
             "peak_rss_mb": statistics.median, "setup_s": statistics.median}

PROBE_GROUPS = ("import", "tamari", "csv", "stats_q", "poset", "polynomial",
                "solve_full", "solve_q", "solve_canopy", "verify")

PER_LAYER = {name: unit for name, (unit, _, _) in probes.TARGETS.items()}
PER_LAYER["trace.overhead_frac"] = "ratio"


class Command:
    """One child invocation: a CLI command or the library call."""

    def __init__(self, kind, args, digest_kind="raw"):
        self.kind = kind
        self.args = [str(a) for a in args]
        self.digest_kind = digest_kind
        self.key = f"{kind} " + " ".join(self.args)

    def argv(self):
        if self.kind == "cli":
            return [sys.executable, "-m", "intervalence.cli"] + self.args
        return [sys.executable, str(BENCH / "child.py"), "lib"] + self.args

    def traced_argv(self, spans_path, trace_id):
        return ([sys.executable, str(BENCH / "child.py"), "traced", str(spans_path),
                 trace_id, self.kind] + self.args)


def workload_commands(workload, sz):
    if workload == "enumerate":
        return [Command("cli", ["poly", "--n", sz["poly_n"]]),
                Command("cli", ["table", "--n", sz["csv_n"], "--format", "csv"])]
    if workload == "series":
        return [Command("cli", ["series", "--mode", "full", "--N", sz["full_N"],
                                "--format", "json"]),
                Command("cli", ["series", "--mode", "q", "--N", sz["q_N"]]),
                Command("lib", ["canopy", sz["canopy_N"]])]
    return [Command("cli", ["verify", "--suite", "all", "--max-n", sz["verify_max_n"],
                            "--format", "json"], "verify_json")]


def setup_size(workload, sz):
    """Largest lattice the workload's set-up builds; 0 for the import alone."""
    return {"enumerate": sz["poly_n"], "verify": sz["verify_max_n"], "series": 0}[workload]


class Runner:
    """Spawns children one at a time and keeps the operation tally."""

    def __init__(self, deadline, quiet=False):
        self.deadline = deadline
        self.quiet = quiet
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.err_path = OUT / "child-stderr.txt"

    def out_of_time(self):
        return time.perf_counter() > self.deadline

    def tally(self, what, reason):
        """Count one operation; ``reason`` is None when it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{what}: {reason}")
            if not self.quiet:
                print(f"FAIL {what}: {reason}", flush=True)

    def spawn(self, argv):
        """Run ``argv`` to completion; returns wall, cpu, peak RSS and stdout."""
        with open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    cwd=ROOT, env=self.env)
            out, timed_out = self._read_until_deadline(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode
        reason = None
        if timed_out:
            reason = "killed at the run's time budget"
        elif code != 0:
            tail = self.err_path.read_text(errors="replace").strip().splitlines()[-3:]
            reason = f"exit code {code}: {' | '.join(tail)}"
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "stdout": out,
                "error": reason}

    def _read_until_deadline(self, proc):
        chunks = []
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                remaining = self.deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    proc.stdout.close()
                    return b"".join(chunks), True
                if not sel.select(remaining):
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        proc.stdout.close()
        return b"".join(chunks), False


def run_pass(runner, commands, references, traced_dir=None, trace_id=None):
    """One pass through the workload's commands; digests checked after each."""
    results = []
    for i, cmd in enumerate(commands):
        if traced_dir is None:
            res = runner.spawn(cmd.argv())
        else:
            spans = traced_dir / f"{trace_id}-{i}.json"
            res = runner.spawn(cmd.traced_argv(spans, f"{trace_id}-{i}"))
            res["spans"] = spans
        res["key"] = cmd.key
        reason = res["error"]
        if reason is None:
            want = references.get(cmd.key)
            got = checks.digest(cmd.digest_kind, res["stdout"])
            if want is None:
                reason = "no reference digest"
            elif got != want:
                reason = f"stdout digest {got[:16]} != reference {want[:16]}"
        runner.tally(cmd.key, reason)
        results.append(res)
        if runner.out_of_time():
            break
    return {"wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "commands": results}


def cross_checks(runner, workload, sz, outputs):
    """Checks against references outside the code under test; untimed."""
    def check(name, fn, *args):
        try:
            reason = fn(*args)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            reason = f"unreadable output: {exc!r}"
        runner.tally(name, reason)

    def out(cmd_index):
        return outputs[cmd_index]["stdout"]

    if workload == "enumerate":
        n = sz["poly_n"]
        check(f"A000260({n}) coefficient sum", checks.check_poly_total, out(0), n)
        check(f"CSV rows at n={sz['csv_n']}", checks.check_csv_rows, out(1), sz["csv_n"])
        full_cmd = Command("cli", ["series", "--mode", "full", "--N", n + 1, "--format", "json"])
        full = runner.spawn(full_cmd.argv())
        runner.tally(f"reference run {full_cmd.key}", full["error"])
        if full["error"] is None:
            check(f"DD_{n}(x,y,ybar,1) = [t^{n}] FULL(u=v=1)",
                  checks.check_poly_against_full, out(0), full["stdout"], n)
    elif workload == "series":
        upto = min(sz["q_N"], sz["full_N"])
        check(f"Q(q=1) = FULL through t^{upto - 1}", checks.check_q_against_full,
              out(1), out(0), upto)
        upto = min(sz["canopy_N"], sz["full_N"])
        check(f"CANOPY = FULL(x=1, v=u, y=LL, ybar=RR) through t^{upto - 1}",
              checks.check_canopy_against_full, out(2), out(0), upto)
    else:
        check("every verify report passes", checks.check_verify_passed, out(0),
              probes.SUITE_IDS)


def measure_setup(runner, workload, sz, repeats):
    size = setup_size(workload, sz)
    argv = [sys.executable, str(BENCH / "child.py"), "setup", workload, str(size)]
    samples = []
    for _ in range(repeats):
        res = runner.spawn(argv)
        reason = res["error"]
        if reason is None:
            try:
                samples.append(float(res["stdout"].split()[-1]))
            except (ValueError, IndexError):
                reason = f"unreadable set-up time {res['stdout'][:40]!r}"
        runner.tally(f"set-up of {workload}", reason)
    return samples


def run_probes(runner, seed, smoke):
    metrics = {}
    notes = {}
    missing = []
    import_samples = []
    for group in PROBE_GROUPS:
        for _ in range(IMPORT_REPEATS if group == "import" else 1):
            argv = [sys.executable, str(BENCH / "probes.py"), group, "--seed", str(seed)]
            if smoke:
                argv.append("--smoke")
            res = runner.spawn(argv)
            reason = res["error"]
            doc = None
            if reason is None:
                try:
                    doc = json.loads(res["stdout"].decode().strip().splitlines()[-1])
                except (ValueError, IndexError) as exc:
                    reason = f"unreadable probe output: {exc!r}"
            if doc is not None and doc["failures"]:
                reason = "; ".join(doc["failures"])
            runner.tally(f"probe {group}", reason)
            if doc is None:
                continue
            if group == "import":
                import_samples.append(doc["metrics"]["cli.import_s"])
                continue
            metrics.update(doc["metrics"])
            missing.extend(doc["missing"])
            if doc["notes"]:
                notes[group] = doc["notes"]
    if import_samples:
        metrics["cli.import_s"] = statistics.median(import_samples)
    return metrics, missing, notes


def run_context(args):
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "git_revision": rev,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def load_references(smoke):
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)["smoke" if smoke else "full"]


def _summary_line(name, value, values, unit):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"{name} = {value:.6g} {unit}  ({len(values)} samples: mean"
            f" {statistics.fmean(values):.6g}, median {statistics.median(values):.6g},"
            f" quartiles {q[0]:.6g} .. {q[2]:.6g})")


def measure(args, references, runner):
    """The untraced run: set-up samples, timed passes, checks."""
    sz = SIZES["smoke" if args.smoke else "full"]
    commands = workload_commands(args.workload, sz)
    setup = []
    passes = []
    start = time.perf_counter()
    last = 0.0
    # One set-up sample before each pass spreads them over the run, so their
    # median does not hinge on the machine's speed in one short window.  After
    # MIN_PASSES, a pass starts only if at the last pace it ends within --seconds.
    while len(passes) < MIN_PASSES or (time.perf_counter() - start + last <= args.seconds
                                       and not runner.out_of_time()):
        began = time.perf_counter()
        setup += measure_setup(runner, args.workload, sz, 1)
        passes.append(run_pass(runner, commands, references))
        last = time.perf_counter() - began
        p = passes[-1]
        print(f"pass {len(passes)}: wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB  ["
              + ", ".join(f"{r['key']}: {r['wall_s']:.3f} s {r['peak_rss_mb']:.1f} MB"
                          for r in p["commands"]) + "]", flush=True)
    if len(setup) < SETUP_REPEATS and not runner.out_of_time():
        setup += measure_setup(runner, args.workload, sz, SETUP_REPEATS - len(setup))
    if len(passes[0]["commands"]) == len(commands):
        cross_checks(runner, args.workload, sz, passes[0]["commands"])
    samples = {name: [p[name] for p in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setup
    metrics = {}
    for name, values in samples.items():
        if values:
            value = AGGREGATE[name](values)
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
            print(_summary_line(name, value, values, END_TO_END[name]))
    return metrics, samples


def measure_traced(args, references, runner):
    """Plain and traced passes, then the per-module probes."""
    sz = SIZES["smoke" if args.smoke else "full"]
    commands = workload_commands(args.workload, sz)
    span_dir = OUT / "spans"
    span_dir.mkdir(exist_ok=True)
    trace_id = f"{args.workload}-seed{args.seed}"
    # plain and traced passes alternate for half the run, at least once each
    plains, traceds = [], []
    start = time.perf_counter()
    while not plains or (time.perf_counter() - start < args.seconds / 2
                         and not runner.out_of_time()):
        plains.append(run_pass(runner, commands, references))
        traceds.append(run_pass(runner, commands, references, span_dir,
                                f"{trace_id}-{len(traceds)}"))
    plain = plains[0]
    traced = traceds[-1]
    if len(plain["commands"]) == len(commands):
        cross_checks(runner, args.workload, sz, plain["commands"])
    plain_s = statistics.median(p["wall_s"] for p in plains)
    traced_s = statistics.median(p["wall_s"] for p in traceds)
    overhead = traced_s / plain_s - 1.0
    print(f"untraced pass {plain_s:.4f} s, traced pass {traced_s:.4f} s (medians of"
          f" {len(plains)}), tracing overhead {overhead:+.2%}")
    span_docs = []
    for res in traced["commands"]:
        reason = None
        try:
            with open(res["spans"]) as fh:
                span_docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            reason = f"unreadable: {exc!r}"
        runner.tally(f"span file of {res['key']}", reason)
    metrics, missing, notes = run_probes(runner, args.seed, args.smoke)
    metrics["trace.overhead_frac"] = overhead
    module_self = {}
    for doc in span_docs:
        for module, secs in doc["module_self_s"].items():
            module_self[module] = module_self.get(module, 0.0) + secs
    for module, secs in sorted(module_self.items(), key=lambda kv: -kv[1]):
        print(f"span self time {module}: {secs:.4f} s")
    span_path = OUT / f"spans-{trace_id}.json"
    with open(span_path, "w") as fh:
        json.dump({"context": run_context(args), "untraced_wall_s": plain_s,
                   "traced_wall_s": traced_s, "overhead_frac": overhead,
                   "module_self_s": module_self, "probe_targets": probes.TARGETS,
                   "probe_notes": notes, "missing": missing, "commands": span_docs}, fh)
    print(f"span file: {span_path.relative_to(ROOT)}")
    if "verify" in notes:
        print(f"shared enumeration paid by suite {notes['verify']['shared_enumeration_payer']!r}")
    for name in missing:
        print(f"MISSING probe function: {name}")
    out = {}
    for name, unit in PER_LAYER.items():
        value = metrics.get(name)
        out[name] = {"value": value, "unit": unit}
        target = probes.TARGETS.get(name)
        shown = "MISSING" if value is None else f"{value:.6g} {unit}"
        print(f"{name} = {shown}" + (f"  (moves {target[1]} on {target[2]})" if target else ""))
    return out, {"untraced_wall_s": [p["wall_s"] for p in plains],
                 "traced_wall_s": [p["wall_s"] for p in traceds]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes: n = 5, N = 6")
    ap.add_argument("--self-test", action="store_true",
                    help="prove that corrupted outputs and digests are caught")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "intervalence" / "__init__.py").is_file():
        print(f"error: no intervalence sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    runner = Runner(time.perf_counter() + RUN_BUDGET_S)
    context = run_context(args)
    print("context: " + json.dumps(context), flush=True)
    references = load_references(args.smoke)
    if args.trace:
        metrics, samples = measure_traced(args, references, runner)
    else:
        metrics, samples = measure(args, references, runner)
    frac = runner.failed / runner.attempted
    print(f"fail_frac = {frac:.6g} ratio  ({runner.failed} failed of {runner.attempted}"
          " operations)")
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"context": context, "samples": samples, "metrics": metrics,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "fail_frac": frac, "failures": runner.failures}, fh, indent=1)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
