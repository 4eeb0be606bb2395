#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark (bench/e2e/README.md).

Run from the repository root:

  python3 bench/e2e/run.py --workload paper_mix --seed 1 [--seconds 10] [--trace 0|1]
  python3 bench/e2e/run.py --smoke
  python3 bench/e2e/run.py --workload all --repeat 5 [--sets 2] [--vary-seed] [--record FILE]

The benchmark is built with CMake into .bench_build/e2e under the
repository root. A plain run then becomes the e2e_bench binary, whose last
line of output is the JSON result, after a summary line that names the
workload and holds every metric measured. --repeat N runs each workload N
times at the same seed (with --vary-seed, at seeds seed .. seed+N-1), once per
set, and prints every end-to-end metric's median, quartiles and spread
against the bound BENCHMARK.json gives it, if any; with two sets it also
compares their medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORKLOADS = ["paper_mix", "ranked_sharded", "uniform_mmap", "ingest_live"]


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
             "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], stdout=sys.stderr, check=True)


def run_once(binary, args):
    """Runs the benchmark once; returns (decode arm, summary line, result line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"run.py: e2e_bench {' '.join(args)} failed ({proc.returncode})")
    arm = lines[0].split()[1].rstrip(",") if lines[0].startswith("fts_decode_arm") else "unknown"
    return arm, json.loads(lines[-2]), json.loads(lines[-1])


def spread_table(name, runs, bounds):
    """Prints one set's statistics for every end-to-end metric, against the
    bound of those that have one; returns {metric: median}."""
    medians = {}
    print(f"{name}: {len(runs)} runs")
    print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in runs[0]:
        values = [r[metric] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        medians[metric] = statistics.median(values)
        spread = (q3 - q1) / medians[metric]
        bound = bounds.get(metric)
        if bound is None:
            flag = "     -"
        else:
            flag = f"{bound:6.3f}" + ("" if spread <= bound / 3 else
                                      "  over 1/3 bound" if spread <= bound else "  OVER BOUND")
        print(f"  {metric:28} {medians[metric]:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {flag}", flush=True)
    return medians


def repeat(binary, args, opts):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # Of the end-to-end metrics BENCHMARK.json leaves out, qps alone is
    # better higher.
    better = {"qps": "higher"} | {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = [opts.seed + i if opts.vary_seed else opts.seed for i in range(opts.repeat)]
    record = {"nproc": len(os.sched_getaffinity(0)), "seconds": opts.seconds,
              "seeds": seeds, "workloads": {}}
    workloads = WORKLOADS if opts.workload == "all" else [opts.workload]
    for w in workloads:
        sets = []
        for s in range(opts.sets):
            runs = []
            for seed in seeds:
                arm, summary, result = run_once(
                    binary, args + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(opts.seconds)])
                record["fts_decode_arm"] = arm
                if not result["correct"] or result["failed"] != 0:
                    sys.exit(f"run.py: {w} seed {seed}: incorrect or failed requests")
                runs.append({k: v["value"] for k, v in summary["end_to_end"].items()})
            sets.append(spread_table(f"{w} set {s + 1}", runs, bounds))
            record["workloads"].setdefault(w, []).append(
                [{"seed": seed, "metrics": r} for seed, r in zip(seeds, runs)])
        for s in range(1, len(sets)):
            print(f"{w}: set {s + 1} median against set 1 (positive = worse)")
            for metric in sets[0]:
                a, b = sets[0][metric], sets[s][metric]
                worse = (a - b) / a if better.get(metric) == "higher" else (b - a) / a
                bound = bounds.get(metric)
                flag = "" if bound is None else f" of bound {bound:.3f}" + (
                    "" if worse <= bound else "  WORSE THAN BOUND")
                print(f"  {metric:28} {worse:+8.4f}{flag}")
    if opts.record:
        with open(opts.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--record")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    opts, rest = parser.parse_known_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    binary = os.path.join(BUILD, "e2e_bench")
    args = rest if "--out" in rest else rest + ["--out", os.path.join(BUILD, "out")]
    if opts.repeat > 0:
        repeat(binary, args, opts)
        return
    args += ["--workload", opts.workload, "--seed", str(opts.seed),
             "--seconds", str(opts.seconds)]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
