#!/usr/bin/env python3
"""Benchmark smoke + regression gate.

Runs the table2/3/4 benches at a small fixed scale (they must complete)
and the hot-key-splitting ablation (which self-verifies: it exits nonzero
when splitting changes any join checksum), then the local_kernels
throughput bench and the micro_tracker merge and encode bench,
writes BENCH_local_kernels.json, and fails when any gated throughput
(baseline sections "tps" and "micro_tps") regresses more than the
tolerance (default 25%) below the checked-in baseline
(tools/bench_baseline.json). micro_tracker runs KERNEL_RUNS times too and
its gates read per-metric medians.

local_kernels runs KERNEL_RUNS times untraced and KERNEL_RUNS times traced
(--trace=), alternating, and every gate below reads a per-metric median
over runs, so one noisy run cannot decide a verdict. The throughput and
wall gates read the untraced runs. A traced run times each kernel in reps
that alternate tracer off and on, and reports both bests; the tracing gate
takes each traced run's traced / untraced throughput ratio and fails when
the median ratio shows tracing costing more than --trace-tolerance
(default 10%) on any gated kernel: the tracer is advertised as
low-overhead, so CI holds it to that. Comparing within one process matters
on a shared machine, where separate runs of one binary differ by +-20%.

Finally runs the pipelined-fabric smoke workload (baseline section
"makespan") traced, recomputes the critical-path makespan from the
exported micro-batch spans, and fails when the modeled makespan regresses
more than the section's max_regression over the checked-in value or is
not comfortably below the barrier-mode sum-of-phases (barrier_fraction,
default 0.9): the whole point of the event-driven fabric is overlap, so
CI holds it to that. Modeled time is deterministic, so the regression
tolerance is tight. The same run emits a critical-path blame report
(--blame=json, saved as bench_smoke_blame.json next to the trace) and the
gate cross-checks three independent makespan computations to the exact
microsecond: the blame bucket sum, the pipeline.makespan_us counter, and
the critical path recomputed from the exported micro-batch spans.

local_kernels also reports four wall-time ratios measured within one
process, so they need no checked-in baseline:
  tj4_pipelined_over_barrier_wall: serial pipelined 4TJ (DRR) wall over
    serial barrier 4TJ wall on one workload X input. It fails above
    MAX_PIPELINED_OVER_BARRIER_WALL: both drivers move the same bytes, so
    the pipelined one must not cost much more to run.
  tj4_pipelined_scaling: pipelined 4TJ wall at twice the keys over its wall
    at the base scale. It fails above MAX_PIPELINED_SCALING, so a path
    that grows superlinearly cannot hide at smoke scale.
  y_checksum_join_over_join: a merge join of workload Y's sorted blocks
    with the output checksum sink over the same join with a no-op sink. It
    fails above MAX_Y_CHECKSUM_JOIN_OVER_JOIN: the checksum hashes each
    input row once per key group, and a per-pair rehash of both payloads
    costs over 10 times more.
  barrier_node_scaling: serial barrier 4TJ wall on 8,000 keys per table
    spread over 256 nodes over the same at 16 nodes. It fails above
    MAX_BARRIER_NODE_SCALING: at O(messages + nodes) per phase it sits near
    6 on a 4-vCPU VM; rescanning the N x N traffic matrix per barrier: ~50.

micro_tracker reports one more same-run ratio:
  tracker_merge_over_reference: the loser-tree merge's throughput over the
    decode + comparison-sort reference's on the same messages (8 sources,
    each key on 4). It fails below MIN_TRACKER_MERGE_OVER_REFERENCE: the
    word-decoding, branch-free merge runs several times the reference, and
    a branchy or byte-wise merge falls back toward it.

The baseline section "drr_makespan" gates the DRR egress scheduler the
same way at the head-of-line-worst configuration (4 nodes, 1 KiB chunks,
a wide credit window): its makespan must stay within max_regression of
the checked-in value, its total head-of-line blame share must stay below
max_hol_share, and it must strictly beat the FIFO policy's best makespan
across fifo_sweep_chunks — the win the scheduler exists for, held by CI.

Usage:
  tools/bench_smoke.py [--build-dir build] [--threads N]
                       [--baseline tools/bench_baseline.json]
                       [--out BENCH_local_kernels.json]
                       [--tolerance 0.25] [--trace-tolerance 0.10]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Small fixed scales: large divisors shrink the paper cardinalities so the
# whole smoke stays in CI-friendly time while every phase still runs.
TABLE_BENCHES = [
    ("table2_execution_times", ["--scale=20000", "--nodes=4"]),
    ("table3_hash_join_steps", ["--scale=20000", "--nodes=4"]),
    ("table4_track_join_steps", ["--scale=20000", "--nodes=4"]),
    # Checksum-gated: the binary itself fails when hot-key splitting
    # perturbs any join result.
    ("ablation_hot_keys", ["--nodes=8"]),
]
BENCH_TIMEOUT_S = 600
# Untraced and traced local_kernels runs each; gates read their medians.
KERNEL_RUNS = 3
# Ceilings on local_kernels' same-run wall ratios.
MAX_PIPELINED_OVER_BARRIER_WALL = 1.6
MAX_PIPELINED_SCALING = 2.4
MAX_Y_CHECKSUM_JOIN_OVER_JOIN = 100
MAX_BARRIER_NODE_SCALING = 10
# Floor on micro_tracker's same-run merge / reference throughput ratio.
MIN_TRACKER_MERGE_OVER_REFERENCE = 4.0


def run(cmd, timeout=BENCH_TIMEOUT_S):
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n")
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(1)
    return proc.stdout, wall


def median_metrics(runs):
    """Per-metric median of numeric fields over several bench outputs;
    other fields come from the first run."""
    merged = dict(runs[0])
    for metric, value in runs[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            merged[metric] = statistics.median(run[metric] for run in runs)
    return merged


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: tools/bench_baseline.json)")
    ap.add_argument("--out", default="BENCH_local_kernels.json")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="allowed fractional regression (default: baseline "
                         "file's tolerance, else 0.25)")
    ap.add_argument("--threads", type=int,
                    default=min(8, os.cpu_count() or 1))
    ap.add_argument("--trace-tolerance", type=float, default=0.10,
                    help="allowed fractional throughput loss with span "
                         "tracing enabled (default: 0.10)")
    args = ap.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = args.baseline or os.path.join(repo, "tools",
                                                  "bench_baseline.json")
    with open(baseline_path) as f:
        baseline = json.load(f)
    tolerance = (args.tolerance if args.tolerance is not None
                 else baseline.get("tolerance", 0.25))

    bench_dir = os.path.join(args.build_dir, "bench")
    threads = [f"--threads={args.threads}"]

    table_wall = {}
    for name, flags in TABLE_BENCHES:
        print(f"=== smoke: {name} ===", flush=True)
        _, wall = run([os.path.join(bench_dir, name)] + flags + threads)
        table_wall[name] = round(wall, 3)
        print(f"    ok ({wall:.1f}s)")

    # Untraced and traced runs alternate, so drift in machine speed over
    # the smoke hits both sides alike. The trace file must come out as
    # loadable Chrome JSON.
    print(f"=== local_kernels throughput ({KERNEL_RUNS} untraced, "
          f"{KERNEL_RUNS} traced, alternating) ===", flush=True)
    trace_path = os.path.join(args.build_dir, "bench_smoke_trace.json")
    kernel_bin = os.path.join(bench_dir, "local_kernels")
    untraced_runs, traced_runs = [], []
    for _ in range(KERNEL_RUNS):
        out, _ = run([kernel_bin] + threads)
        untraced_runs.append(json.loads(out))
        out, _ = run([kernel_bin, f"--trace={trace_path}"] + threads)
        traced_runs.append(json.loads(out))
    kernels = median_metrics(untraced_runs)
    with open(trace_path) as f:
        trace_doc = json.load(f)
    if not trace_doc.get("traceEvents"):
        sys.stderr.write(f"FAIL: {trace_path} has no traceEvents\n")
        return 1
    print(f"    trace ok ({len(trace_doc['traceEvents'])} events)")

    # Tracker microbench: single-threaded by construction (the k-way merge
    # and the encoder are one node's local work), gated through the separate
    # "micro_tps" baseline section and its same-run ratio.
    print(f"=== micro_tracker merge and encode throughput ({KERNEL_RUNS} "
          "runs) ===", flush=True)
    micro_runs = []
    for _ in range(KERNEL_RUNS):
        micro_out, _ = run([os.path.join(bench_dir, "micro_tracker")])
        micro_runs.append(json.loads(micro_out))
    micro = median_metrics(micro_runs)

    # Pipelined-fabric makespan gate: deterministic modeled time, so this
    # is a correctness-of-overlap check, not a noisy perf measurement.
    makespan_section = baseline.get("makespan")
    makespan_report = None
    makespan_failures = []
    if makespan_section:
        print("=== pipelined makespan (modeled) ===", flush=True)
        pipeline_trace = os.path.join(args.build_dir,
                                      "bench_smoke_pipeline_trace.json")
        tjsim = os.path.join(args.build_dir, "tools", "tjsim")
        blame_out, _ = run([tjsim] + makespan_section["workload"] +
                           [f"--trace={pipeline_trace}", "--blame=json"])
        with open(pipeline_trace) as f:
            pipeline_doc = json.load(f)
        pipeline_events = pipeline_doc.get("traceEvents", [])
        mb_spans = [e for e in pipeline_events
                    if e.get("ph") == "X" and e.get("cat") == "mb"]
        counters = {name: [e["args"]["value"] for e in pipeline_events
                           if e.get("ph") == "C" and e.get("name") == name]
                    for name in ("pipeline.makespan_us",
                                 "pipeline.barrier_us")}
        if not mb_spans or not all(counters.values()):
            sys.stderr.write("FAIL: pipelined trace is missing micro-batch "
                             "spans or makespan counters\n")
            return 1
        # The critical path ends where the last micro-batch span ends; it
        # must agree with the fabric's own makespan counter.
        span_makespan_us = max(e["ts"] + e["dur"] for e in mb_spans)
        makespan_us = counters["pipeline.makespan_us"][-1]
        barrier_us = counters["pipeline.barrier_us"][-1]
        if abs(span_makespan_us - makespan_us) > 1:
            makespan_failures.append(
                f"trace critical path {span_makespan_us}us disagrees with "
                f"pipeline.makespan_us {makespan_us}us")
        base_us = makespan_section["makespan_us"]
        max_regression = makespan_section.get("max_regression", 0.10)
        barrier_fraction = makespan_section.get("barrier_fraction", 0.9)
        ceiling_us = base_us * (1.0 + max_regression)
        if makespan_us > ceiling_us:
            makespan_failures.append(
                f"pipelined makespan {makespan_us}us regressed more than "
                f"{max_regression:.0%} over baseline {base_us}us")
        if makespan_us > barrier_fraction * barrier_us:
            makespan_failures.append(
                f"pipelined makespan {makespan_us}us is not below "
                f"{barrier_fraction:.0%} of the barrier sum-of-phases "
                f"{barrier_us}us (overlap lost)")
        # Blame cross-check: the critical-path decomposition must reconcile
        # exactly with both the fabric's makespan counter and the critical
        # path recomputed from the exported spans. Three independent paths
        # to the same microsecond count, or the gate fails.
        blame_reports = json.loads(blame_out)
        blame_path = os.path.join(args.build_dir, "bench_smoke_blame.json")
        with open(blame_path, "w") as f:
            f.write(blame_out)
        blame_summary = []
        for blame in blame_reports:
            if not blame.get("reconciled"):
                makespan_failures.append(
                    f"blame report {blame.get('algorithm')} did not "
                    f"reconcile: bucket sum {blame.get('bucket_sum_us')}us "
                    f"vs makespan {blame.get('makespan_us')}us")
            if blame.get("makespan_us") != makespan_us:
                makespan_failures.append(
                    f"blame report {blame.get('algorithm')} makespan "
                    f"{blame.get('makespan_us')}us disagrees with "
                    f"pipeline.makespan_us {makespan_us}us")
            blame_summary.append({
                "algorithm": blame.get("algorithm"),
                "makespan_us": blame.get("makespan_us"),
                "bucket_sum_us": blame.get("bucket_sum_us"),
                "hol_share": blame.get("hol_share"),
                "reconciled": bool(blame.get("reconciled")),
            })
        makespan_report = {
            "workload": makespan_section["workload"],
            "makespan_us": makespan_us,
            "span_makespan_us": span_makespan_us,
            "barrier_us": barrier_us,
            "baseline_us": base_us,
            "ceiling_us": round(ceiling_us),
            "barrier_fraction": barrier_fraction,
            "overlap": round(1.0 - makespan_us / barrier_us, 4),
            "blame": blame_summary,
            "pass": not makespan_failures,
        }
        status = "ok" if not makespan_failures else "REGRESSION"
        print(f"    makespan {makespan_us}us vs barrier {barrier_us}us "
              f"(overlap {makespan_report['overlap']:.0%}, baseline "
              f"{base_us}us) {status}")
        for blame in blame_summary:
            rec = "exact" if blame["reconciled"] else "MISMATCH"
            print(f"    blame {blame['algorithm']}: bucket sum "
                  f"{blame['bucket_sum_us']}us == makespan "
                  f"{blame['makespan_us']}us ({rec}, hol share "
                  f"{blame['hol_share']:.0%})")

    # DRR egress-scheduler gate (baseline section "drr_makespan"): at the
    # head-of-line-worst configuration (1 KiB chunks) the per-destination
    # scheduler must keep total HOL blame under the section's ceiling and
    # beat the FIFO policy's best chunk size outright, with the same
    # three-way blame/counter/trace makespan cross-check as above. Modeled
    # time is deterministic, so every bound here is tight.
    drr_section = baseline.get("drr_makespan")
    drr_report = None
    drr_failures = []
    if drr_section:
        print("=== DRR egress scheduler (modeled) ===", flush=True)
        tjsim = os.path.join(args.build_dir, "tools", "tjsim")
        drr_trace = os.path.join(args.build_dir, "bench_smoke_drr_trace.json")
        blame_out, _ = run([tjsim] + drr_section["workload"] +
                           [f"--trace={drr_trace}", "--blame=json"])
        with open(drr_trace) as f:
            drr_doc = json.load(f)
        drr_events = drr_doc.get("traceEvents", [])
        mb_spans = [e for e in drr_events
                    if e.get("ph") == "X" and e.get("cat") == "mb"]
        counter_vals = [e["args"]["value"] for e in drr_events
                        if e.get("ph") == "C"
                        and e.get("name") == "pipeline.makespan_us"]
        deficit_tracks = {e.get("name") for e in drr_events
                          if e.get("ph") == "C" and
                          str(e.get("name", "")).startswith("drr.deficit.")}
        if not mb_spans or not counter_vals:
            sys.stderr.write("FAIL: DRR trace is missing micro-batch spans "
                             "or the makespan counter\n")
            return 1
        if not deficit_tracks:
            drr_failures.append(
                "DRR trace exports no drr.deficit.* counter tracks (egress "
                "scheduler not engaged?)")
        drr_makespan_us = counter_vals[-1]
        span_us = max(e["ts"] + e["dur"] for e in mb_spans)
        if abs(span_us - drr_makespan_us) > 1:
            drr_failures.append(
                f"DRR trace critical path {span_us}us disagrees with "
                f"pipeline.makespan_us {drr_makespan_us}us")
        blame_reports = json.loads(blame_out)
        with open(os.path.join(args.build_dir,
                               "bench_smoke_drr_blame.json"), "w") as f:
            f.write(blame_out)
        hol_share = None
        for blame in blame_reports:
            if not blame.get("reconciled"):
                drr_failures.append(
                    f"DRR blame report {blame.get('algorithm')} did not "
                    f"reconcile: bucket sum {blame.get('bucket_sum_us')}us "
                    f"vs makespan {blame.get('makespan_us')}us")
            if blame.get("makespan_us") != drr_makespan_us:
                drr_failures.append(
                    f"DRR blame report {blame.get('algorithm')} makespan "
                    f"{blame.get('makespan_us')}us disagrees with "
                    f"pipeline.makespan_us {drr_makespan_us}us")
            hol_share = blame.get("hol_share")
        base_us = drr_section["makespan_us"]
        max_regression = drr_section.get("max_regression", 0.10)
        ceiling_us = base_us * (1.0 + max_regression)
        if drr_makespan_us > ceiling_us:
            drr_failures.append(
                f"DRR makespan {drr_makespan_us}us regressed more than "
                f"{max_regression:.0%} over baseline {base_us}us")
        max_hol_share = drr_section.get("max_hol_share", 0.30)
        if hol_share is None:
            drr_failures.append("DRR blame report carries no hol_share")
        elif hol_share >= max_hol_share:
            drr_failures.append(
                f"DRR head-of-line share {hol_share:.1%} is not below "
                f"{max_hol_share:.0%}")
        # The FIFO policy's chunk sweep: DRR must strictly beat its best.
        fifo_best_us = None
        fifo_sweep = {}
        for chunk in drr_section.get("fifo_sweep_chunks", []):
            out, _ = run([tjsim] + drr_section["fifo_workload"] +
                         [f"--pipeline-chunk={chunk}", "--blame=json"])
            fifo_us = json.loads(out)[-1]["makespan_us"]
            fifo_sweep[str(chunk)] = fifo_us
            if fifo_best_us is None or fifo_us < fifo_best_us:
                fifo_best_us = fifo_us
        if fifo_best_us is not None and drr_makespan_us >= fifo_best_us:
            drr_failures.append(
                f"DRR makespan {drr_makespan_us}us does not strictly beat "
                f"the FIFO chunk sweep's best {fifo_best_us}us")
        drr_report = {
            "workload": drr_section["workload"],
            "makespan_us": drr_makespan_us,
            "span_makespan_us": span_us,
            "baseline_us": base_us,
            "ceiling_us": round(ceiling_us),
            "hol_share": hol_share,
            "max_hol_share": max_hol_share,
            "fifo_sweep_us": fifo_sweep,
            "fifo_best_us": fifo_best_us,
            "pass": not drr_failures,
        }
        status = "ok" if not drr_failures else "REGRESSION"
        print(f"    drr makespan {drr_makespan_us}us (hol share "
              f"{hol_share:.0%}) vs fifo best {fifo_best_us}us, baseline "
              f"{base_us}us {status}")

    gate = []
    failures = list(makespan_failures) + list(drr_failures)

    wall_gate = {}
    for metric, ceiling in (
            ("tj4_pipelined_over_barrier_wall",
             MAX_PIPELINED_OVER_BARRIER_WALL),
            ("tj4_pipelined_scaling", MAX_PIPELINED_SCALING),
            ("y_checksum_join_over_join", MAX_Y_CHECKSUM_JOIN_OVER_JOIN),
            ("barrier_node_scaling", MAX_BARRIER_NODE_SCALING)):
        ratio = kernels.get(metric)
        ok = ratio is not None and ratio <= ceiling
        wall_gate[metric] = {"median": ratio, "ceiling": ceiling,
                             "runs": [r.get(metric) for r in untraced_runs],
                             "pass": ok}
        if ratio is None:
            failures.append(f"{metric}: missing from bench output")
            continue
        print(f"    {metric}: median {ratio:.3f} vs ceiling {ceiling} "
              f"{'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(f"{metric} median {ratio:.2f} exceeds its "
                            f"ceiling {ceiling}")
    ratio = micro.get("tracker_merge_over_reference")
    ok = ratio is not None and ratio >= MIN_TRACKER_MERGE_OVER_REFERENCE
    wall_gate["tracker_merge_over_reference"] = {
        "median": ratio, "floor": MIN_TRACKER_MERGE_OVER_REFERENCE,
        "runs": [r.get("tracker_merge_over_reference") for r in micro_runs],
        "pass": ok}
    if ratio is None:
        failures.append("tracker_merge_over_reference: missing from bench "
                        "output")
    else:
        print(f"    tracker_merge_over_reference: median {ratio:.3f} vs "
              f"floor {MIN_TRACKER_MERGE_OVER_REFERENCE} "
              f"{'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(
                f"tracker_merge_over_reference median {ratio:.2f} is below "
                f"its floor {MIN_TRACKER_MERGE_OVER_REFERENCE}")
    gated = [(metric, base, kernels.get(metric))
             for metric, base in baseline["tps"].items()]
    gated += [(metric, base, micro.get(metric))
              for metric, base in baseline.get("micro_tps", {}).items()]
    for metric, base_tps, measured in gated:
        if measured is None:
            failures.append(f"{metric}: missing from bench output")
            continue
        floor = base_tps * (1.0 - tolerance)
        ok = measured >= floor
        gate.append({"metric": metric, "measured_tps": measured,
                     "baseline_tps": base_tps, "floor_tps": round(floor),
                     "pass": ok})
        status = "ok" if ok else "REGRESSION"
        print(f"    {metric}: {measured:.3e} vs floor {floor:.3e} "
              f"(baseline {base_tps:.3e}) {status}")
        if not ok:
            failures.append(
                f"{metric}: {measured:.3e} tuples/s is more than "
                f"{tolerance:.0%} below baseline {base_tps:.3e}")

    trace_gate = []
    for metric in baseline["tps"]:
        traced_metric = metric[:-len("_tps")] + "_traced_tps"
        if any(traced_metric not in r or metric not in r
               for r in traced_runs):
            failures.append(f"{traced_metric}: missing from traced bench "
                            "output")
            continue
        ratio = statistics.median(r[traced_metric] / r[metric]
                                  for r in traced_runs)
        ok = ratio >= 1.0 - args.trace_tolerance
        trace_gate.append({"metric": metric, "traced_over_untraced": ratio,
                           "pass": ok})
        status = "ok" if ok else "OVERHEAD"
        print(f"    {metric} traced/untraced median ratio: {ratio:.3f} "
              f"{status}")
        if not ok:
            failures.append(
                f"{metric}: tracing costs more than "
                f"{args.trace_tolerance:.0%} throughput (median traced/"
                f"untraced ratio {ratio:.3f})")

    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "threads": args.threads,
        "tolerance": tolerance,
        "kernels": kernels,
        "micro_tracker": micro,
        "table_bench_wall_s": table_wall,
        "gate": gate,
        "trace_gate": trace_gate,
        "trace_tolerance": args.trace_tolerance,
        "makespan_gate": makespan_report,
        "drr_gate": drr_report,
        "kernel_runs": KERNEL_RUNS,
        "wall_gate": wall_gate,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    if failures:
        for msg in failures:
            sys.stderr.write(f"bench gate FAILED: {msg}\n")
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
