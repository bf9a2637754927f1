#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the track-join simulator.

Run from the repository root:

    python3 perfbench/run.py --workload x_tj4 --seed 1 --seconds 10 --trace 0

Workloads (all 8 simulated nodes in one process, one query at a time):
x_tj4, y_tj4, x_hj, x_tj4_pipelined; see BENCHMARK.json for why each exists
and perfbench/layers.json for what each per-layer metric should move.

Each run
  1. builds perfbench/ (which compiles the library under src/) into
     $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
  2. for each of several inputs generated from the seed, computes the
     reference digest once, untimed, in a separate process and with a
     different driver (HJ for the 4TJ workloads, barrier 4TJ for x_hj), so
     the measuring process's peak RSS is its own; then measures for
     its share of --seconds: --trace 0 gives the end-to-end metrics,
     --trace 1 the per-layer metrics of a traced run (its spans are written
     to <build dir>/traces/);
  3. checks the exact counts against earlier runs of the same input and
     sources (kept under <build dir>/counts/), so any divergence is a
     failure and not noise;
  4. reports each metric's median over the instances.

Human-readable lines come first (every metric by name and unit, with the
run context); the last line is one JSON object with the keys correct,
attempted, failed and metrics (the BENCHMARK.json metrics of the mode).
Exit status: 0 if every query was correct, 1 if any failed, 2 if the
benchmark could not run (usage, build or missing sources).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("x_tj4", "y_tj4", "x_hj", "x_tj4_pipelined")
# Each run measures several input instances, each generated from its own
# seed (run seed * SEED_STRIDE + index) in its own processes, and reports
# the median over them, so that differences between inputs average out
# instead of deciding a run's number. The pipelined driver's time and peak
# RSS vary most from input to input (about +-10%), so it gets more. The
# traced run has no bounds to meet and uses one instance.
SEED_STRIDE = 8
INSTANCES = {"x_tj4_pipelined": 5}
DEFAULT_INSTANCES = 3
# Every measuring process must end before this many seconds have passed
# since the build finished, so that a run ends within three minutes.
RUN_DEADLINE_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build(out_dir):
    """Configures (once) and builds tj_perfbench; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "--target",
                  "tj_perfbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            die("build failed: " + " ".join(step))
    return out_dir / "tj_perfbench"


def source_hash():
    """Content hash of everything the benchmark binary is built from."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_binary(cmd, deadline):
    """Runs the benchmark binary until `deadline` (time.monotonic());
    stderr passes through, (exit code or None on timeout, stdout) returns."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def parse(stdout):
    """Splits the binary's line output into metrics, counts and the rest."""
    metrics, counts, lines = {}, {}, []
    attempted = failed = None
    for line in stdout.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "metric" and len(fields) >= 4:
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif fields[0] == "count" and len(fields) == 3:
            counts[fields[1]] = fields[2]
        elif fields[0] == "result":
            kv = dict(f.split("=", 1) for f in fields[1:])
            attempted, failed = int(kv["attempted"]), int(kv["failed"])
        lines.append(line)
    return metrics, counts, lines, attempted, failed


def finish(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


def measure_instance(binary, out_dir, args, index, count, srchash,
                     deadline):
    """Measures one input instance in its own processes.

    Returns (metrics, attempted, failed, ok); prints the instance's lines.
    """
    seed = args.seed * SEED_STRIDE + index
    prefix = f"instance {index}"
    common = ["--workload", args.workload, "--seed", str(seed)]
    if args.divisor:
        common += ["--divisor", str(args.divisor)]

    digest = args.reference_digest
    if digest is None:
        code, stdout = run_binary([str(binary), "reference"] + common,
                                  deadline)
        fields = dict(f.split("=", 1) for f in stdout.split() if "=" in f)
        if code != 0 or "digest" not in fields:
            print(f"perfbench: {prefix}: the reference driver failed",
                  file=sys.stderr)
            return {}, 1, 1, False
        digest = fields["digest"]
        print(f"{prefix} reference driver={fields['driver']} digest={digest} "
              f"rows={fields['rows']}")

    seconds = max(1, math.ceil(args.seconds / count))
    cmd = [str(binary), "measure"] + common + [
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--digest", digest]
    if args.trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{seed}.json")]
    code, stdout = run_binary(cmd, deadline)
    metrics, counts, lines, attempted, failed = parse(stdout)
    for line in lines:
        print(f"{prefix} {line}")
    if code is None or attempted is None:
        print(f"perfbench: {prefix}: the measured process did not finish",
              file=sys.stderr)
        return {}, max(attempted or 1, 1), max(failed or 1, 1), False

    # Exact-count guard across runs: the same workload, input seed, scale
    # and sources must give the same counts.
    if counts and failed == 0:
        key = (f"{args.workload}-seed{seed}-div{args.divisor or 0}"
               f"-trace{args.trace}-{srchash}.json")
        path = out_dir / "counts" / key
        if path.is_file():
            earlier = json.loads(path.read_text())
            if earlier != counts:
                diverged = sorted(k for k in set(earlier) | set(counts)
                                  if earlier.get(k) != counts.get(k))
                print(f"perfbench: {prefix}: exact counts differ from an "
                      f"earlier run with the same seed: {', '.join(diverged)}",
                      file=sys.stderr)
                failed += 1
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(counts, sort_keys=True))
    return metrics, attempted, failed, code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--divisor", type=int,
                        help="override the workload's scale divisor "
                             "(smaller inputs for smoke tests)")
    parser.add_argument("--reference-digest",
                        help="use this digest instead of the reference "
                             "driver's (smoke test of the oracle)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or (args.divisor or 1) < 1:
        die("--seed must be >= 0, --seconds and --divisor >= 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + RUN_DEADLINE_S
    srchash = source_hash()
    print(f"context seed {args.seed}")
    count = 1 if args.trace else INSTANCES.get(args.workload,
                                                DEFAULT_INSTANCES)
    print(f"context instances {count}")
    print(f"context git_commit {git_commit()}")
    print(f"context source_hash {srchash}")
    print(f"context nproc {len(os.sched_getaffinity(0))}")

    values, units = {}, {}
    attempted = failed = 0
    ok = True
    for index in range(count):
        metrics, tried, bad, fine = measure_instance(
            binary, out_dir, args, index, count, srchash, deadline)
        attempted += tried
        failed += bad
        ok = ok and fine
        for name, (value, unit) in metrics.items():
            values.setdefault(name, []).append(value)
            units[name] = unit
    if not ok:
        finish(False, max(attempted, 1), max(failed, 1), {})

    for name, vals in values.items():
        if name != "failure_ratio":
            print(f"metric {name} {statistics.median(vals)!r} {units[name]} "
                  f"median_of={len(vals)}")
    print(f"metric failure_ratio {failed / attempted!r} ratio "
          f"attempted={attempted}")
    result = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if len(values.get(name, [])) != count or units[name] != unit:
            die(f"metric {name} ({unit}) was not reported")
        result[name] = {"value": statistics.median(values[name]),
                        "unit": unit}
    finish(failed == 0, attempted, failed, result)


if __name__ == "__main__":
    main()
