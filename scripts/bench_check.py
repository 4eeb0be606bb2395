#!/usr/bin/env python3
"""Benchmark regression smoke check.

Runs the micro benchmarks (micro_index, micro_postings) with a very short
--benchmark_min_time and compares each benchmark's CPU time (best of
--runs short runs) against the committed baselines in
bench/baselines/BENCH_<bench>.json. Because the
baselines were recorded on a different machine than CI runners, raw ratios
are meaningless; instead each benchmark's new/baseline ratio is normalized
by the *median* ratio across all benchmarks of that binary. A uniformly
slower machine shifts every ratio equally and cancels out; a benchmark that
regressed relative to its peers sticks out. The check fails when any
normalized ratio exceeds the threshold (default 1.25 = >25% relative
regression). Host noise flags a different few benchmarks on each run, so
before declaring a regression the script re-runs only the flagged
benchmarks (--benchmark_filter on their names) --runs more times, keeps
each benchmark's minimum over all runs, re-normalizes, and reports only
what is still over the threshold.

Modes:
  --mode blocking   exit non-zero on regression (Release CI)
  --mode advisory   always exit zero, print the report (Debug CI)

The committed baselines are recorded from a Release build of the library,
so only the Release CI leg runs blocking; Debug-vs-Release speedups are
non-uniform per benchmark and would defeat the normalization, which is why
the Debug leg is advisory. (The `library_build_type: debug` field inside
the baseline JSONs describes the google-benchmark harness package, not
this library's optimization level.)

Baselines are decode-arm-aware: the runtime-dispatched group-varint
decoder makes decode-heavy benchmarks genuinely faster under SIMD, so each
run's recorded `fts_decode_arm` context selects
bench/baselines/BENCH_<bench>.<arm>.json when that file exists, falling
back to the plain BENCH_<bench>.json (recorded scalar-forced — the
portable floor every arm should at least match).

Note: the container's google-benchmark predates the "0.01x" min-time
syntax, so the script passes a plain seconds value (default 0.05).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

# micro_service's throughput series use real-time + process-CPU
# measurement: their cpu_time is the whole pool's CPU per batch, which is
# as machine-portable as the single-thread benches' once normalized by the
# median machine ratio. The scaling *shape* (qps at threads:8 vs threads:1)
# is a counter, not a time, so it never trips the regression check on
# differently-cored runners.
DEFAULT_BENCHES = ["micro_index", "micro_postings", "micro_service",
                   "micro_ingest", "micro_topk", "micro_net", "micro_pairs"]

# Multipliers to nanoseconds per google-benchmark time_unit.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """benchmark name -> CPU time in ns, per-iteration runs only. CPU time
    is used instead of wall time: the smoke run is short, and scheduler
    noise on shared CI runners hits wall time much harder. Also returns the
    run's decode arm ("avx2"/"ssse3"/"scalar", recorded by BenchMain as
    custom context) so the caller can pick an arm-matched baseline."""
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip mean/median/stddev aggregates
        unit = TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        times[b["name"]] = b["cpu_time"] * unit
    return times, doc.get("context", {}).get("fts_decode_arm")


def posix_escape(name):
    """Escapes `name` for google-benchmark's POSIX-extended filter regex
    (only ERE metacharacters; escaping anything else is undefined there)."""
    return re.sub(r"([.\[\]{}()\\*+?^$|])", r"\\\1", name)


def run_bench(build_dir, bench, min_time, out_path, names=None):
    binary = os.path.join(build_dir, bench)
    if not os.path.exists(binary):
        raise FileNotFoundError(f"benchmark binary not found: {binary}")
    cmd = [
        binary,
        f"--benchmark_min_time={min_time}",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    if names:
        cmd.append("--benchmark_filter=^(" +
                   "|".join(posix_escape(n) for n in names) + ")$")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def collect_min_times(build_dir, bench, min_time, runs, current, names=None):
    """Runs `bench` `runs` times (only `names` when given), folding each
    benchmark's minimum CPU time into `current`. Best-of-N: scheduler
    interference only ever inflates timings, so the per-benchmark minimum
    over a few short runs is far stabler than one longer run. Returns the
    decode arm the runs recorded."""
    arm = None
    for _ in range(runs):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            out_path = tmp.name
        try:
            run_bench(build_dir, bench, min_time, out_path, names)
            run_times, run_arm = load_times(out_path)
            arm = arm or run_arm
            for name, t in run_times.items():
                current[name] = min(t, current.get(name, float("inf")))
        finally:
            os.unlink(out_path)
    return arm


def normalized_regressions(current, baseline, common, threshold):
    """(median machine ratio, {name: normalized ratio}, [flagged names])."""
    ratios = {name: current[name] / baseline[name] for name in common}
    median = statistics.median(ratios.values())
    norms = {name: ratios[name] / median if median > 0 else float("inf")
             for name in common}
    return median, norms, [n for n in common if norms[n] > threshold]


def check_bench(build_dir, baseline_dir, bench, min_time, threshold, runs,
                max_bench_ms):
    """Returns (regressions, report_lines)."""
    current = {}
    try:
        arm = collect_min_times(build_dir, bench, min_time, runs, current)
    except (FileNotFoundError, subprocess.CalledProcessError) as e:
        # A missing or crashing binary must not take the whole check
        # down with a traceback — report it and move on to the other
        # binaries (a baseline with no runnable binary is a wiring
        # problem the report line makes visible).
        return [], [f"{bench}: run failed ({e}); skipped"]

    # Decode-arm-aware baseline selection: SIMD group decode makes the
    # decode-heavy benchmarks genuinely faster, so a scalar-forced run
    # compared against an avx2-recorded baseline reports the SIMD speedup
    # itself as a regression (and vice versa hides real ones). Prefer a
    # baseline recorded under the same arm; the plain file is the portable
    # floor for arms without a dedicated recording.
    baseline_path = os.path.join(baseline_dir, f"BENCH_{bench}.json")
    arm_warning = None
    if arm is not None:
        arm_path = os.path.join(baseline_dir, f"BENCH_{bench}.{arm}.json")
        if os.path.exists(arm_path):
            baseline_path = arm_path
        else:
            # Falling back to the portable floor is legitimate but must be
            # visible: a SIMD run compared against a scalar-recorded floor
            # always looks faster, so real SIMD-arm regressions can hide
            # until someone records BENCH_<bench>.<arm>.json.
            arm_warning = (f"  WARNING: no {arm} baseline "
                           f"({os.path.basename(arm_path)} missing); "
                           f"comparing against the portable floor — "
                           f"{arm}-specific regressions may go undetected")
    if not os.path.exists(baseline_path):
        return [], [f"{bench}: no baseline at {baseline_path}; skipped"]
    baseline, baseline_arm = load_times(baseline_path)

    common = sorted(set(baseline) & set(current))
    # Benchmarks whose single iteration exceeds the smoke budget run once,
    # cold — their ratio is dominated by warmup, not regressions. Skip them
    # (the short query-path benchmarks are the ones this check protects),
    # along with any degenerate zero-time baseline entries.
    too_long = [n for n in common if baseline[n] > max_bench_ms * 1e6]
    common = [n for n in common
              if 0 < baseline[n] <= max_bench_ms * 1e6]
    if not common:
        return [], [f"{bench}: no common benchmarks with baseline; skipped"]

    median, norms, flagged = normalized_regressions(current, baseline, common,
                                                    threshold)
    rerun_note = None
    if flagged:
        # Confirm before declaring: re-run only the flagged benchmarks, keep
        # the per-benchmark minimum over all runs, and re-normalize. A real
        # regression survives; a noise spike on one run does not.
        try:
            collect_min_times(build_dir, bench, min_time, runs, current,
                              names=flagged)
        except subprocess.CalledProcessError as e:
            return [], [f"{bench}: re-run failed ({e}); skipped"]
        median, norms, confirmed = normalized_regressions(
            current, baseline, common, threshold)
        rerun_note = (f"  re-ran {len(flagged)} flagged benchmark(s) "
                      f"{runs} more time(s): {len(confirmed)} still over "
                      f"{threshold:.2f}x")
    arm_note = ""
    if arm is not None or baseline_arm is not None:
        arm_note = (f", decode arm {arm or 'unknown'} vs baseline "
                    f"{baseline_arm or 'unknown'} "
                    f"[{os.path.basename(baseline_path)}]")
    report = [f"{bench}: {len(common)} benchmarks, median machine ratio "
              f"{median:.2f}x (normalizing by it){arm_note}"]
    if arm_warning:
        report.append(arm_warning)
    if rerun_note:
        report.append(rerun_note)
    if too_long:
        report.append(f"  {len(too_long)} benchmark(s) over {max_bench_ms}ms "
                      f"per iteration skipped (cold single-iteration smoke "
                      f"runs are warmup-dominated): {', '.join(too_long)}")
    new_only = sorted(set(current) - set(baseline))
    if new_only:
        report.append(f"  {len(new_only)} benchmark(s) not in baseline "
                      f"(ignored): {', '.join(new_only[:5])}"
                      f"{' ...' if len(new_only) > 5 else ''}")

    regressions = []
    for name in common:
        norm = norms[name]
        flag = ""
        if norm > threshold:
            regressions.append((name, norm))
            flag = f"  <-- REGRESSION (> {threshold:.2f}x)"
        report.append(f"  {name}: {norm:.2f}x relative{flag}")
    return regressions, report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--benches", nargs="*", default=DEFAULT_BENCHES)
    parser.add_argument("--min-time", default="0.05",
                        help="--benchmark_min_time value (seconds)")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="max allowed normalized ratio (1.25 = +25%%)")
    parser.add_argument("--max-bench-ms", type=float, default=20.0,
                        help="skip benchmarks whose baseline iteration "
                             "exceeds this many milliseconds")
    parser.add_argument("--runs", type=int, default=3,
                        help="short runs per binary, and re-runs of any "
                             "flagged benchmarks; per-benchmark minimum "
                             "is compared (noise is one-sided)")
    parser.add_argument("--mode", choices=["blocking", "advisory"],
                        default="blocking")
    args = parser.parse_args()

    all_regressions = []
    for bench in args.benches:
        regressions, report = check_bench(args.build_dir, args.baseline_dir,
                                          bench, args.min_time, args.threshold,
                                          args.runs, args.max_bench_ms)
        print("\n".join(report))
        all_regressions.extend(regressions)

    if all_regressions:
        print(f"\n{len(all_regressions)} benchmark(s) regressed >"
              f"{(args.threshold - 1) * 100:.0f}% relative to the baseline:")
        for name, norm in all_regressions:
            print(f"  {name}: {norm:.2f}x")
        if args.mode == "blocking":
            return 1
        print("(advisory mode: not failing the build)")
    else:
        print("\nno benchmark regressions detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
