"""Self-test of the benchmark: ``python3 bench/run.py --self-test``.

Proves at smoke sizes that the checks can fail: a pass against the frozen
digests has ``fail_frac`` 0, the same pass against a corrupted digest has
``fail_frac`` > 0, and each cross-route check rejects a corrupted output.
It also checks that ``BENCHMARK.json`` names exactly the workloads and
metrics this benchmark emits.
"""

import json
import time

import checks
import run


def _fail_frac(workload, references):
    runner = run.Runner(time.perf_counter() + run.RUN_BUDGET_S, quiet=True)
    sz = run.SIZES["smoke"]
    p = run.run_pass(runner, run.workload_commands(workload, sz), references)
    run.cross_checks(runner, workload, sz, p["commands"])
    return runner.failed / runner.attempted, p


def main():
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    references = run.load_references(smoke=True)
    outputs = {}
    for workload in run.WORKLOADS:
        frac, p = _fail_frac(workload, references)
        outputs[workload] = [r["stdout"] for r in p["commands"]]
        expect(frac == 0, f"{workload}: frozen digests give fail_frac 0 (got {frac})")
        key = run.workload_commands(workload, run.SIZES["smoke"])[0].key
        corrupted = dict(references, **{key: "0" * 64})
        frac, _ = _fail_frac(workload, corrupted)
        expect(frac > 0, f"{workload}: a corrupted digest raises fail_frac (got {frac:.3f})")

    poly, csv = outputs["enumerate"]
    full, q_text, canopy = outputs["series"]
    (verify_json,) = outputs["verify"]
    expect(checks.check_poly_total(poly.rstrip(b"\n") + b" + x\n", 5) is not None,
           "enumerate: a changed coefficient fails the A000260 sum")
    expect(checks.check_csv_rows(csv.rstrip(b"\n").rsplit(b"\n", 1)[0] + b"\n", 5) is not None,
           "enumerate: a dropped CSV row is caught")
    bumped = poly.replace(b"x^4", b"x^5", 1)
    expect(bumped != poly and checks.check_poly_against_full(bumped, full, 5) is not None,
           "enumerate: a changed exponent fails the FULL cross-route check")
    expect(checks.check_q_against_full(q_text.replace(b"ybar^2", b"ybar^3", 1), full, 6)
           is not None, "series: a changed Q term fails Q(q=1) = FULL")
    expect(checks.check_canopy_against_full(canopy.replace(b'"coeff": 2', b'"coeff": 3', 1),
                                            full, 6) is not None,
           "series: a changed CANOPY coefficient fails the specialisation check")
    expect(checks.check_verify_passed(verify_json.replace(b'"pass"', b'"fail"', 1),
                                      run.probes.SUITE_IDS) is not None,
           "verify: a failed report is caught")
    reports = json.loads(verify_json)
    reports[0]["wall_time"] += 9.9
    retimed = json.dumps(reports, indent=2).encode()
    expect(checks.digest("verify_json", retimed) == checks.digest("verify_json", verify_json),
           "verify: per-suite wall_time does not change the digest")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json lists the end-to-end metrics with their units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json lists the per-module metrics with their units")

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 0 if not problems else 1
