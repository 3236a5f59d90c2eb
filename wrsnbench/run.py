#!/usr/bin/env python3
"""Repository benchmark: builds the library and the wrsnbench program
(Release) in wrsnbench/build, runs one workload in its own process, and
prints one JSON result as the last line of standard output.

    python3 wrsnbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
with tracing in alternate rounds and prints the per-layer metrics, writing
the benchmark's spans to wrsnbench/out/spans-<workload>.json.  See
README.md for what each metric means and how host drift is handled.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "wrsnbench")
WORKLOADS = ("paper-sweep", "sparse-field", "service-mix")
BUILD_JOBS = "3"
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_rounds_per_s": "rounds/s",
    "solve_s": "s",
    "cost_uj_per_bit": "uJ/bit",
    "peak_rss_mb": "MB",
    "plan_warm_ms": "ms",
    "plan_cold_ms": "ms",
    "evaluate_ms": "ms",
    "service_rps": "1/s",
}

PER_LAYER = {
    "geom.field_s": "s",
    "graph.build_s": "s",
    "graph.dijkstra_runs": "count",
    "core.rfh.phase1_s": "s",
    "core.rfh.phase2_s": "s",
    "core.rfh.phase3_s": "s",
    "core.rfh.phase4_s": "s",
    "core.rfh.iterations": "count",
    "core.rfh.closure_rebuilds": "count",
    "core.ls.s": "s",
    "core.ls.evals": "count",
    "core.ls.moves": "count",
    "core.idb.s": "s",
    "core.exact.s": "s",
    "core.exact.nodes": "count",
    "core.pricer.repair_region_mean": "posts",
    "core.pricer.full_fallbacks": "count",
    "exp.overhead_s": "s",
    "exp.solve_spans_s": "s",
    "exp.trace_gap_s": "s",
    "sim.s": "s",
    "sim.round_us": "us",
    "sim.dispatches": "count",
    "svc.encode_us": "us",
    "svc.decode_us": "us",
    "svc.request_parse_us": "us",
    "svc.session_build_ms": "ms",
    "svc.run_plan_us": "us",
    "svc.render_us": "us",
    "svc.price_us": "us",
    "svc.other_us": "us",
    "svc.cache_hits": "count",
    "svc.cache_misses": "count",
    "svc.incremental": "count",
    "svc.rebuilt": "count",
    "svc.plan_warm_p99_ms": "ms",
    "svc.plan_warm_n": "count",
    "svc.plan_cold_p99_ms": "ms",
    "svc.plan_cold_n": "count",
    "svc.evaluate_p99_ms": "ms",
    "svc.evaluate_n": "count",
    "obs.trace_overhead": "ratio",
    "cost.sweep_uj_per_bit": "uJ/bit",
    "cost.sparse_uj_per_bit": "uJ/bit",
    "cost.service_uj_per_bit": "uJ/bit",
    "host.ref_s": "s",
    "host.setup_raw_s": "s",
    "host.sweep_raw_s": "s",
    "host.sim_raw_rounds_per_s": "rounds/s",
    "host.solve_raw_s": "s",
    "host.plan_warm_raw_ms": "ms",
    "host.plan_cold_raw_ms": "ms",
    "host.evaluate_raw_ms": "ms",
    "host.service_raw_rps": "1/s",
}


def die(message):
    print("wrsnbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds; make's own checks keep a rebuild cheap."""
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "wrsnbench", "-j", BUILD_JOBS])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                die("build failed, see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([BINARY, "selftest"], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    if selftest.returncode != 0:
        die("a check accepted a corrupted output:\n" + selftest.stdout)

    spawned = time.monotonic()
    child = subprocess.run(
        [BINARY, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", os.path.relpath(OUT), "--spawned", repr(spawned)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0 or not child.stdout.strip():
        die("workload exited with %d:\n%s" % (child.returncode, child.stderr))
    result = json.loads(child.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, "result-%s.json" % args.workload), "w") as raw:
        json.dump(result, raw, indent=1)
    for failure in result["failures"]:
        print("check failed: " + failure, file=sys.stderr)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted.items():
        if name not in result["metrics"]:
            die("workload did not report " + name)
        value, reported_unit = result["metrics"][name]
        if reported_unit != unit:
            die("%s reported in %s, expected %s" % (name, reported_unit, unit))
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
