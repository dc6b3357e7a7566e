#!/usr/bin/env python3
"""Calibrates the benchmark's bounds: runs every workload SETS x RUNS
times through the command in BENCHMARK.json (seeds 1..RUNS in each set,
workload order alternating run to run) and writes, per set, workload and
end-to-end metric, the values with their median, quartiles, min, max and
spread (quartile distance / median) to calibration.json next to this file.

Run from the repository root:

    python3 crates/bench/benchmark/calibrate.py [RUNS] [SETS]

Quartiles are Python's statistics.quantiles(values, n=4).
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    started = time.time()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed: {lines[-1]}")
    return result, wall


def summarize(values):
    quart = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": quart[0],
        "q3": quart[2],
        "min": min(values),
        "max": max(values),
        "spread": (quart[2] - quart[0]) / median,
    }


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    sets = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    out = {
        "how": f"{sets} sets of {runs} runs per workload, seeds 1..{runs}, "
               "workload order alternating; python3 crates/bench/benchmark/calibrate.py",
        "run_seconds": bench["run_seconds"],
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "sets": [],
    }
    for s in range(sets):
        results = {w: [] for w in workloads}
        walls = {w: [] for w in workloads}
        for i in range(runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                result, wall = run_once(bench, w, i + 1)
                results[w].append(result)
                walls[w].append(wall)
                print(f"set {s + 1} {w} seed {i + 1}: {wall:.1f} s", flush=True)
        summary = {}
        for w in workloads:
            summary[w] = {"run_wall_s": summarize(walls[w])}
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results[w]]
                summary[w][m["name"]] = summarize(values)
                print(f"  {w:<8} {m['name']:<14} spread {summary[w][m['name']]['spread']:.4f}"
                      f" (bound {m['bound']})")
        out["sets"].append(summary)
    path = os.path.join(HERE, "calibration.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
