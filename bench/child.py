"""Child-process entry points of the benchmark; each call is a fresh interpreter.

    python3 bench/child.py setup WORKLOAD SIZE
        Import intervalence, build what WORKLOAD reuses (lattices up to
        SIZE; SIZE 0 means the import alone) and print the seconds taken.
    python3 bench/child.py lib canopy N
        Solve the CANOPY system to order N through the library and print
        its interval series as JSON on stdout.
    python3 bench/child.py traced SPANS TRACE_ID (cli ARGS... | lib canopy N)
        Run a CLI command or the library call with spans around the
        package's public functions, then write the spans to SPANS.
"""

import json
import sys
import time


def setup(workload, size):
    start = time.perf_counter()
    import intervalence
    if workload == "enumerate":
        intervalence.tamari_lattice(size)
    elif workload == "verify":
        for n in range(1, size + 1):
            intervalence.tamari_lattice(n)
    print(repr(time.perf_counter() - start))


def library_call(mode, N):
    from intervalence.series import Mode, SystemConfig, solve
    if mode != "canopy":
        raise SystemExit(f"unknown library call {mode!r}")
    out = solve(SystemConfig(Mode.CANOPY, N))
    sys.stdout.write(json.dumps(out.intervals.to_json(), sort_keys=True) + "\n")


def run(argv):
    if argv[0] == "cli":
        from intervalence import cli
        return cli.main(argv[1:])
    if argv[0] == "lib":
        library_call(argv[1], int(argv[2]))
        return 0
    raise SystemExit(f"unknown command {argv[0]!r}")


def traced(spans_path, trace_id, argv):
    import tracer
    tr = tracer.Tracer(trace_id)
    tracer.install(tr)
    start = time.perf_counter()
    try:
        code = run(argv)
    finally:
        sys.stdout.flush()
        tr.dump(spans_path, {"argv": argv, "wall_s": time.perf_counter() - start})
    return code


def main(argv):
    if argv[0] == "setup":
        setup(argv[1], int(argv[2]))
        return 0
    if argv[0] == "traced":
        return traced(argv[1], argv[2], argv[3:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
