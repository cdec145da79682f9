#!/usr/bin/env python3
"""Build and run the tempest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds the benchmark package in
perfbench/ (which compiles the library from src/ with the root project's
flags) into .bench_build/perfbench, runs the workload in its own process,
and prints the result as the last line of standard output:

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
BENCHMARK.json lists both, and every run is checked against it. The full
report of a run (every sample, the output checks, the host and the
threading environment) and, traced, its spans in Chrome trace JSON are
written to .bench_build/perfbench-out/. --workload all runs every workload
and prints one table. Exits 1 when an output check failed (after printing
the result), and another non-zero code without a result when the benchmark
cannot build or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(targets):
    if not (ROOT / "src" / "tempest").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no tempest sources at {ROOT} (expected src/tempest and CMakeLists.txt)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, cwd=ROOT)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")


def run_workload(spec, workload, seed, seconds, trace):
    """Run one workload in its own process; return (exit code, report)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "tempest_bench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
           f"--out={OUT_DIR}"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    if done.returncode not in (0, 1):
        fail(f"{workload}: benchmark exited with {done.returncode}")
    report_path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{workload}: no report: {e}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if want != got:
        fail(f"{workload}: metrics {sorted(got.items())} do not match "
             f"BENCHMARK.json {sorted(want.items())}")
    return done.returncode, report


def result_line(report):
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def print_table(rows, out):
    for workload, report in rows:
        verdict = "ok" if report["correct"] else "CHECK FAILED"
        print(f"{workload}: {verdict}, {report['failed']} of "
              f"{report['attempted']} shots failed", file=out)
        for name, m in report["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}", file=out)
        shots = report.get("samples", {}).get("shot_s")
        if shots:
            tail = (f", p{shots['tail_percentile']:.1f} {shots['tail_value']:.6g} s"
                    if "tail_percentile" in shots else "")
            print(f"  shot_s over {shots['n']} shots: median "
                  f"{shots['median']:.6g} s{tail}", file=out)
        for p in report.get("problems", []):
            print(f"  problem: {p}", file=out)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own check test")
    args = ap.parse_args()

    if args.self_test:
        build(["perfbench_checks_test"])
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_checks_test")],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build(["tempest_bench"])
    if args.workload == "all":
        rows = []
        for w in names:
            _, report = run_workload(spec, w, args.seed, args.seconds, args.trace)
            rows.append((w, report))
        print_table(rows, sys.stdout)
        sys.exit(0 if all(r["correct"] for _, r in rows) else 1)

    code, report = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    print_table([(args.workload, report)], sys.stderr)
    print(result_line(report))
    sys.exit(code)


if __name__ == "__main__":
    main()
