#!/usr/bin/env python3
"""The dfp benchmark: build it, run one seeded workload, print its metrics.

Run from the repository root:

  python3 perfbench/run.py --workload adhoc|serve|fleet --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --check-determinism [--seed N] [--seconds S]
  python3 perfbench/run.py --self-test

A run builds dfp and the perfbench binary from source into .bench_build (a no-op when up to date),
runs the workload in its own process, and prints a human summary followed, as the last line
of stdout, by one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics. A per-layer metric that perfbench/rationale.json does not measure on the
workload reads 0. --workload all runs the three workloads one after another and prints a
summary and a JSON line for each.

--check-determinism runs every workload twice with one seed and fails on any difference in
a metric the perfbench binary marks exact (the simulated metrics and the per-layer counts).
--self-test builds and runs the benchmark's own unit tests.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("adhoc", "serve", "fleet")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures once, then builds `target` incrementally. Build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload process and returns its parsed report."""
    os.makedirs(OUT, exist_ok=True)
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", os.path.join(OUT, "spans-%s-%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def select_metrics(report, workload, trace):
    """The metrics BENCHMARK.json names for this mode, in its order."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    measured_on = load_json(os.path.join(HERE, "rationale.json"))["per_layer"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        measured = trace == 0 or workload in measured_on[name]["measured_on"]
        if not measured:
            metrics[name] = {"value": 0, "unit": metric["unit"]}
            continue
        got = report["metrics"].get(name)
        if got is None or got["unit"] != metric["unit"]:
            sys.exit("perfbench did not report %s in %s" % (name, metric["unit"]))
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    return metrics


# The end-to-end figures every untraced run prints: (name, metric perfbench reports it as).
# The host-time ones are reported as host.* metrics and are not gated in BENCHMARK.json (see
# perfbench/rationale.json); failed_pct is derived from the query counts.
FIGURES = [
    ("setup_s", "setup_s"),
    ("throughput_qps", "host.throughput_qps"),
    ("latency_p50_ms", "host.latency_p50_ms"),
    ("latency_p95_ms", "host.latency_p95_ms"),
    ("sim_minstr_per_s", "host.sim_minstr_per_s"),
    ("peak_rss_mb", "peak_rss_mb"),
    ("sim_exec_mcycles_per_query", "sim_exec_mcycles_per_query"),
    ("sim_queries_per_gcycle", "sim_queries_per_gcycle"),
    ("profiling_overhead_pct", "profiling_overhead_pct"),
    ("attributed_pct", "attributed_pct"),
]


def summary_lines(workload, seed, report, trace, metrics):
    attempted = report["attempted"]
    failed_pct = 100.0 * report["failed"] / attempted if attempted else 0.0
    yield "%s seed %d: %d queries, %d failed%s" % (
        workload, seed, attempted, report["failed"], "" if report["correct"] else ", INCORRECT")
    for problem in report["problems"]:
        yield "  problem: " + problem
    if trace:
        for name, metric in metrics.items():
            yield "  %-36s %14.6g %s" % (name, metric["value"], metric["unit"])
        return
    for name, source in FIGURES:
        metric = report["metrics"][source]
        note = ""
        if source == "host.latency_p95_ms":
            note = "  (%d samples)" % report["metrics"]["host.latency_samples"]["value"]
        yield "  %-36s %14.6g %s%s" % (name, metric["value"], metric["unit"], note)
    yield "  %-36s %14.6g %%" % ("failed_pct", failed_pct)


def run_once(binary, workload, args):
    report = run_workload(binary, workload, args.seed, args.seconds, args.trace)
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": select_metrics(report, workload, args.trace),
    }
    for line in summary_lines(workload, args.seed, report, args.trace, result["metrics"]):
        print(line)
    print(json.dumps(result), flush=True)


def check_determinism(args):
    binary = build("perfbench")
    ok = True
    for workload in WORKLOADS:
        first, second = (run_workload(binary, workload, args.seed, args.seconds, 1)
                         for _ in range(2))
        exact = sorted(n for n, m in first["metrics"].items() if m["exact"])
        differing = [n for n in exact
                     if second["metrics"].get(n, {}).get("value") != first["metrics"][n]["value"]]
        for name in differing:
            print("%s: %s differs: %r vs %r" % (workload, name, first["metrics"][name]["value"],
                                               second["metrics"].get(name, {}).get("value")))
        verdict = "ok" if not differing and first["correct"] and second["correct"] else "FAIL"
        print("%s seed %d: %d exact metrics, %d differ, correct %s/%s: %s" % (
            workload, args.seed, len(exact), len(differing), first["correct"],
            second["correct"], verdict))
        ok = ok and verdict == "ok"
    return 0 if ok else 1


def self_test():
    binary = build("perfbench_tests")
    return subprocess.run([binary]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]
    if args.self_test:
        return self_test()
    if args.check_determinism:
        return check_determinism(args)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_once(binary, workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
