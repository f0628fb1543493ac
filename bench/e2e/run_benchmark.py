#!/usr/bin/env python3
"""Runner for the end-to-end benchmark (standard library only).

Builds bench_e2e from source, runs each workload in its own process
under a fixed environment, and prints every metric with its unit.

  run_benchmark.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of stdout is one JSON
      object: {"correct", "attempted", "failed", "metrics"}. --trace 0
      gives the end-to-end metrics of BENCHMARK.json, --trace 1 the
      per-layer ones (layers.json and a Chrome trace land in
      <build-dir>/out/).
  run_benchmark.py [--trace 1]
      Every workload once; prints a metric table.
  run_benchmark.py --runs N --results-dir DIR
      N runs of every workload, seeds --seed, --seed + 1, ...,
      alternating the workload order; one results JSON per run in DIR.
  run_benchmark.py --compare DIR_A DIR_B
      Quartiles and relative spread of each end-to-end metric per set;
      flags a median of B worse than A's, or a spread, beyond the
      metric's bound.

Exit status: 0 when every run is correct, 1 otherwise.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE_DIR = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Threads of the library's pool. With the serving dispatcher and the
# load generator on top, a run keeps at most four threads busy.
THREADS = "2"
# The reference route: scalar fp32 kernels, eager aggregation.
REFERENCE_ENV = {"EDGEPC_GEMM": "scalar", "EDGEPC_SIMD": "scalar",
                 "EDGEPC_DELAYED_AGG": "off"}
SETUP_PROCESSES = 5
# Per-process limit, far above any process's normal length.
PROCESS_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def clean_env(extra=None):
    """The caller's environment without any EDGEPC_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EDGEPC_")}
    env["EDGEPC_THREADS"] = THREADS
    env.update(extra or {})
    return env


def build(build_dir):
    """Configure once, then build bench_e2e; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "bench_e2e", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return build_dir / "bench_e2e"


def run_driver(binary, args, env):
    """Run the driver; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([str(binary)] + args, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def setup_seconds(binary, workload, seed):
    """Median time from process start to first logits over fresh
    processes."""
    times = []
    for _ in range(SETUP_PROCESSES):
        start = time.monotonic()
        with subprocess.Popen(
                [str(binary), "--workload", workload, "--seed", str(seed),
                 "--setup-only"],
                env=clean_env(), stdout=subprocess.PIPE, text=True) as proc:
            if not select.select([proc.stdout], [], [], PROCESS_TIMEOUT_S)[0]:
                proc.kill()
                raise RuntimeError("set-up run of %s hung" % workload)
            line = proc.stdout.readline()
            elapsed = time.monotonic() - start
            proc.stdout.read()
            if proc.wait(timeout=PROCESS_TIMEOUT_S) != 0 or \
                    line.strip() != "first-logits":
                raise RuntimeError("set-up run of %s failed" % workload)
        times.append(elapsed)
    return statistics.median(times)


def run_workload(binary, build_dir, workload, seed, seconds, traced):
    """One run of one workload; returns the driver's result with the
    metrics reduced to {name: {"value", "unit"}} as listed in
    BENCHMARK.json for the mode."""
    ref = build_dir / "out" / ("reference-%s.bin" % workload)
    ref.parent.mkdir(parents=True, exist_ok=True)
    code, _ = run_driver(binary, ["--workload", workload, "--seed",
                                  str(seed), "--write-reference", str(ref)],
                         clean_env(REFERENCE_ENV))
    if code != 0:
        raise RuntimeError("reference run of %s failed" % workload)

    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--reference", str(ref)]
    if traced:
        args += ["--traced", "--out-dir",
                 str(build_dir / "out" / ("%s-seed%d" % (workload, seed)))]
    code, result = run_driver(binary, args, clean_env())
    if result is None:
        raise RuntimeError("%s printed no result (exit %d)" % (workload, code))
    metrics = result["metrics"]
    if not traced:
        metrics["setup_s"] = {"value": setup_seconds(binary, workload, seed),
                              "unit": "s"}
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("%s: metrics missing: %s" % (workload, ", ".join(missing)))
    return {
        "correct": bool(result["correct"]) and code == 0 and not missing,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }


def print_table(workload, result):
    for name, m in result["metrics"].items():
        print("%-18s %-28s %14.6g %s" % (workload, name, m["value"],
                                         m["unit"]))


def run_sets(binary, build_dir, args):
    """Every workload once per run, alternating the order; returns
    True when every run was correct."""
    ok = True
    results_dir = Path(args.results_dir) if args.results_dir else None
    if results_dir:
        results_dir.mkdir(parents=True, exist_ok=True)
    for run in range(args.runs):
        seed = args.seed + run
        order = WORKLOADS if run % 2 == 0 else WORKLOADS[::-1]
        record = {"run": run, "seed": seed, "order": order, "results": {}}
        for workload in order:
            result = run_workload(binary, build_dir, workload, seed,
                                  args.seconds, args.traced)
            ok = ok and result["correct"]
            record["results"][workload] = result
            print_table(workload, result)
        if results_dir:
            (results_dir / ("run-%03d.json" % run)).write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n")
    return ok


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_set(directory):
    """{(workload, metric): [values]} over the run files of a set."""
    values = {}
    for path in sorted(Path(directory).glob("run-*.json")):
        record = json.loads(path.read_text())
        for workload, result in record["results"].items():
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
    return values


def compare(dir_a, dir_b):
    """Print each metric's quartiles and relative spread per set.
    Returns False when a median of B is worse than A's by more than the
    metric's bound, or when a spread other than setup_s's exceeds it."""
    a, b = load_set(dir_a), load_set(dir_b)
    ok = True
    print("%-18s %-13s %-26s %6s %-26s %6s %8s %5s" % (
        "workload", "metric", "A q1/median/q3", "spread", "B q1/median/q3",
        "spread", "B vs A", "bound"))
    for metric in SPEC["end_to_end"]:
        bound = metric["bound"]
        for workload in WORKLOADS:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            qa, qb = quartiles(a[key]), quartiles(b[key])
            spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0
                       for q in (qa, qb)]
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if metric["better"] == "lower" else -change
            flags = []
            if worse > bound:
                flags.append("WORSE")
            if metric["name"] != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            ok = ok and not flags
            print("%-18s %-13s %-26s %6.3f %-26s %6.3f %+7.2f%% %5.2f %s" % (
                workload, metric["name"],
                "/".join("%.4g" % v for v in qa), spreads[0],
                "/".join("%.4g" % v for v in qb), spreads[1],
                100 * change, bound, " ".join(flags)))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: the per-layer metrics of a traced run")
    parser.add_argument("--build-dir", default=str(ROOT / ".bench_build"))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--results-dir")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args()
    args.traced = args.trace == 1

    if args.compare:
        return 0 if compare(*args.compare) else 1

    build_dir = Path(args.build_dir).resolve()
    binary = build(build_dir)
    if args.workload:
        result = run_workload(binary, build_dir, args.workload, args.seed,
                              args.seconds, args.traced)
        for name, m in result["metrics"].items():
            log("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    return 0 if run_sets(binary, build_dir, args) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("run_benchmark: error: %s" % e)
        sys.exit(1)
