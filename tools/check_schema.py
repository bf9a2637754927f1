#!/usr/bin/env python3
"""Validates tjsim's structured observability outputs.

Four modes:

  check_schema.py profile       # `tjsim --profile=json` read from stdin
  check_schema.py trace FILE    # Chrome trace JSON from `tjsim --trace=`
  check_schema.py explain       # `tjsim --explain=json` read from stdin
  check_schema.py blame         # `tjsim --blame=json` read from stdin

The profile JSON is a stable interface (EXPERIMENTS.md documents how its
columns map onto the paper's tables): it must be a non-empty array of
per-algorithm objects, each carrying totals and one record per (algorithm,
phase) with wall seconds, modeled network seconds, and the
goodput/local/retransmit byte split. `--expect-zero-recovery` pins the
pristine-path guarantee (zero recovery bytes) and `--expect-zero-hot-split`
the no-skew guarantee (no fragment traffic in any step).

With `trace FILE --pipeline` the file must additionally carry the
event-driven fabric's micro-batch instrumentation: "mb"-category spans,
non-negative flow.credit.* / flow.queued.* counters, 0/1 busy tracks for
every modeled resource (cpu.busy, nic.egress.busy, nic.ingress.busy),
cumulative nic.ingress_bytes/nic.egress_bytes counters matching the barrier
fabric's schema, non-negative per-destination egress.queued.* / drr.deficit.*
scheduler tracks (required with --expect-drr, i.e. for --egress-sched=drr
runs), per-node schedule spans whose [range_lo, range_hi) key
ranges are contiguous, monotone and closed by a single range_hi=-1 sentinel,
and — the causality invariant — every scheduled range preceded on its node
by tracking spans from all sources whose watermarks cover it (or that
already hit end-of-stream). `--allow-partial` relaxes the stream-completion
requirements (schedule spans may be missing or unterminated) for traces of
*failed* runs — e.g. a crash-faulted pipelined run — while still enforcing
every event- and counter-level invariant.

The blame mode checks `tjsim --blame=json` reports: schema, non-negative
buckets, valid wait classes and resources, and the reconciliation invariant
— per-class totals and per-bucket totals each sum to makespan_us exactly.

The trace file must be a Chrome trace-event object (`{"traceEvents": [...]}`)
that Perfetto can load: only complete spans (X), counters (C), instants (i)
and metadata (M), integer pid/tid/ts, non-negative durations, at least one
"phase"-category span and one NIC counter, and process_name metadata so the
per-node lanes are labeled. The explain output must be a non-empty array of
per-algorithm audits whose decision-class byte totals reconcile exactly with
the audited scheduled bytes.
"""
import json
import sys

# A JSON number: float fields may print without a fraction.
NUMBER = (int, float)
# The mode being checked, named in failure messages.
MODE = "schema"

PROFILE_TOTALS_KEYS = {
    "wall_seconds": NUMBER,
    "net_seconds": NUMBER,
    "goodput_bytes": int,
    "local_bytes": int,
    "retransmit_bytes": int,
    "run_max_node_bytes": int,
    # Run-level: wire bytes burned by failed recovery attempts. Failed
    # attempts leave no step records, so it is NOT part of the per-step
    # sum check below.
    "recovery_bytes": int,
}
# The track-join phase labels are themselves an interface: EXPERIMENTS.md,
# the bench suite, and the tracker-merge baseline reference phases like
# "merge received keys" by name, so an accidental rename must fail CI here
# rather than silently detach those references.
TRACK_JOIN_PHASES = {
    "sort local R tuples",
    "sort local S tuples",
    "aggregate keys",
    "hash partition & transfer keys",
    "merge received keys",
    "generate schedules & send locations",
    "selective broadcast & migrate",
    "merge received tuples",
    "final merge-join R->S",
    "final merge-join S->R",
}
TRACK_JOIN_ALGOS = {"2tj-r", "2tj-s", "3tj", "4tj"}
PROFILE_STEP_KEYS = {
    "phase": str,
    "wall_seconds": NUMBER,
    "net_seconds": NUMBER,
    "goodput_bytes": int,
    "local_bytes": int,
    "retransmit_bytes": int,
    "max_node_bytes": int,
    "retransmitted_frames": int,
    "nack_messages": int,
    "frames_dropped": int,
    "frames_corrupted": int,
    "frames_duplicated": int,
    # The process's memory high-water mark when the step closed.
    "peak_rss_bytes": int,
    "bytes_by_type": dict,
}

ALLOWED_PHASES = {"X", "C", "M", "i"}
EXPLAIN_CLASSES = ("free", "broadcast_r_to_s", "broadcast_s_to_r", "migrated",
                   "failover", "hot_split")
EXPLAIN_KEYS = {
    "algorithm": str,
    "total_keys": int,
    "classes": dict,
    "scheduled_bytes": int,
    "traffic_scheduled_bytes": int,
    "tracking_bytes": int,
    "traffic_total_bytes": int,
    "matches_traffic": bool,
    "hash_join_bytes": int,
    "saved_vs_hash_bytes": int,
    "top_keys": list,
}
TOP_KEY_KEYS = {
    "key": int,
    "class": str,
    "chosen_dir": str,
    "chosen_cost": int,
    "chosen_migrations": int,
    "chosen_split": int,
    "broadcast_cost_r_to_s": int,
    "broadcast_cost_s_to_r": int,
    "plan_cost_r_to_s": int,
    "plan_cost_s_to_r": int,
    "hash_join_cost": int,
}


def fail(msg):
    sys.exit("%s schema check FAILED: %s" % (MODE, msg))


def check_fields(obj, spec, where):
    for key, kind in spec.items():
        if key not in obj:
            fail("%s: missing key %r" % (where, key))
        value = obj[key]
        if kind is bool:
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, kind) and not isinstance(value, bool)
        if not ok:
            fail("%s: key %r has %r, expected %s" %
                 (where, key, value, getattr(kind, "__name__", "number")))


def load_stdin(what):
    try:
        doc = json.load(sys.stdin)
    except json.JSONDecodeError as e:
        fail("stdin is not valid JSON: %s" % e)
    if not isinstance(doc, list) or not doc:
        fail("expected a non-empty array of per-algorithm %s" % what)
    return doc


def check_profile(expect_zero_recovery=False, expect_zero_hot_split=False):
    profiles = load_stdin("profiles")
    for profile in profiles:
        algo = profile.get("algorithm")
        if not isinstance(algo, str) or not algo:
            fail("profile without an algorithm name: %r" % profile)
        if not isinstance(profile.get("nodes"), int) or profile["nodes"] < 1:
            fail("%s: bad node count" % algo)
        check_fields(profile.get("totals", {}), PROFILE_TOTALS_KEYS,
                     algo + ".totals")
        steps = profile.get("steps")
        if not isinstance(steps, list) or not steps:
            fail("%s: expected a non-empty steps array" % algo)
        for step in steps:
            check_fields(step, PROFILE_STEP_KEYS, "%s step %r" %
                         (algo, step.get("phase")))
            # Below the hot-key threshold (or with splitting off) no
            # fragment instructions may move, so neither fragment type may
            # appear in a step's byte breakdown (it omits all-zero types).
            if expect_zero_hot_split:
                present = set(step["bytes_by_type"]) & {"fragment_r",
                                                        "fragment_s"}
                if present:
                    fail("%s step %r: fragment traffic %s on a run that "
                         "must not split hot keys" %
                         (algo, step["phase"], sorted(present)))
        if algo in TRACK_JOIN_ALGOS:
            labels = {s["phase"] for s in steps}
            unknown = labels - TRACK_JOIN_PHASES
            if unknown:
                fail("%s: unrecognized phase label(s) %s" %
                     (algo, sorted(unknown)))
            if "merge received keys" not in labels:
                fail("%s: canonical phase 'merge received keys' missing" %
                     algo)
        # A high-water mark never falls from one step to the next.
        peaks = [s["peak_rss_bytes"] for s in steps]
        if any(b < a for a, b in zip(peaks, peaks[1:])):
            fail("%s: peak_rss_bytes falls between steps: %s" % (algo, peaks))
        # The per-step records must add up to the advertised totals.
        for key in ("goodput_bytes", "local_bytes", "retransmit_bytes"):
            total = sum(s[key] for s in steps)
            if total != profile["totals"][key]:
                fail("%s: step %s sum %d != total %d" %
                     (algo, key, total, profile["totals"][key]))
        if expect_zero_recovery and profile["totals"]["recovery_bytes"] != 0:
            fail("%s: pristine run reports recovery_bytes=%d, expected 0" %
                 (algo, profile["totals"]["recovery_bytes"]))
    print("profile schema check passed: %d algorithm(s), %d step(s)" %
          (len(profiles), sum(len(p["steps"]) for p in profiles)))


def check_pipeline(events, allow_partial=False, expect_drr=False):
    """Validates the micro-batch/credit span schema of a pipelined trace."""
    mb_spans = [e for e in events
                if e.get("ph") == "X" and e.get("cat") == "mb"]
    if not mb_spans:
        fail("--pipeline: no 'mb'-category spans (pipelined fabric "
             "instrumentation missing)")

    credit_events = 0
    drr_events = 0
    busy_events = {"cpu.busy": 0, "nic.egress.busy": 0, "nic.ingress.busy": 0}
    nic_byte_events = {"nic.egress_bytes": 0, "nic.ingress_bytes": 0}
    nic_byte_last = {}  # (name, pid) -> last cumulative value
    for e in events:
        if e.get("ph") != "C":
            continue
        name = e.get("name", "")
        if name.startswith("flow.credit.") or name.startswith("flow.queued."):
            credit_events += 1
            if e["args"]["value"] < 0:
                fail("--pipeline: %s went negative (%d) at ts=%d pid=%d" %
                     (name, e["args"]["value"], e.get("ts", -1), e["pid"]))
        elif (name.startswith("egress.queued.") or
              name.startswith("drr.deficit.")):
            # Per-destination DRR egress scheduler tracks (--egress-sched=drr
            # runs only): parked payload bytes and the deficit counter.
            drr_events += 1
            if e["args"]["value"] < 0:
                fail("--pipeline: %s went negative (%d) at ts=%d pid=%d" %
                     (name, e["args"]["value"], e.get("ts", -1), e["pid"]))
        elif name in busy_events:
            busy_events[name] += 1
            if e["args"]["value"] not in (0, 1):
                fail("--pipeline: %s must be a 0/1 busy track, got %d" %
                     (name, e["args"]["value"]))
        elif name in nic_byte_events:
            nic_byte_events[name] += 1
            key = (name, e["pid"])
            value = e["args"]["value"]
            if value < nic_byte_last.get(key, 0):
                fail("--pipeline: cumulative %s went backward on pid=%d "
                     "(%d -> %d)" %
                     (name, e["pid"], nic_byte_last[key], value))
            nic_byte_last[key] = value
    if credit_events == 0:
        fail("--pipeline: no flow.credit.* / flow.queued.* counter events")
    for name, count in busy_events.items():
        if count == 0:
            fail("--pipeline: no %s counter events (resource busy track "
                 "missing)" % name)
    # Counter-track parity with the barrier fabric: both paths emit
    # per-node nic.ingress_bytes / nic.egress_bytes.
    for name, count in nic_byte_events.items():
        if count == 0:
            fail("--pipeline: no %s counter events (parity with the "
                 "barrier-fabric NIC schema)" % name)
    if expect_drr and drr_events == 0:
        fail("--pipeline --expect-drr: no egress.queued.* / drr.deficit.* "
             "counter events (DRR egress scheduler tracks missing)")

    for name in ("pipeline.makespan_us", "pipeline.barrier_us"):
        values = [e["args"]["value"] for e in events
                  if e.get("ph") == "C" and e.get("name") == name]
        if not values:
            # A failed run dies before the end-of-run summary counters.
            if allow_partial:
                continue
            fail("--pipeline: missing %s counter" % name)
        if any(v <= 0 for v in values):
            fail("--pipeline: %s must be positive, got %r" % (name, values))

    # Per-node tracking watermarks: the highest key each (source, table)
    # stream had delivered to this node by a given time, and whether the
    # stream had already signalled end-of-stream.
    tracks = {}  # pid -> list of (ts, src, table, watermark, eos)
    schedules = {}  # pid -> list of (ts, range_lo, range_hi)
    for e in mb_spans:
        name = e["name"]
        pid = e["pid"]
        args = e.get("args", {})
        if name in ("track.track_r", "track.track_s"):
            for key in ("src", "watermark", "eos"):
                if key not in args:
                    fail("--pipeline: %s span without args.%s" % (name, key))
            tracks.setdefault(pid, []).append(
                (e["ts"], args["src"], name[-1], args["watermark"],
                 args["eos"]))
        elif name == "schedule":
            for key in ("range_lo", "range_hi"):
                if key not in args:
                    fail("--pipeline: schedule span without args.%s" % key)
            schedules.setdefault(pid, []).append(
                (e["ts"], args["range_lo"], args["range_hi"]))
    if not schedules and not allow_partial:
        fail("--pipeline: no schedule spans")
    num_nodes = max(e["pid"] for e in mb_spans) + 1

    checked_ranges = 0
    for pid, spans in sorted(schedules.items()):
        spans.sort()
        # Ranges are contiguous, monotone and closed by one -1 sentinel.
        if spans[0][1] != 0:
            fail("--pipeline: node %d first schedule range starts at %d, "
                 "expected 0" % (pid, spans[0][1]))
        for (_, lo, hi), (_, next_lo, _) in zip(spans, spans[1:]):
            if hi == -1:
                fail("--pipeline: node %d has a schedule span after the "
                     "range_hi=-1 sentinel" % pid)
            if hi < lo:
                fail("--pipeline: node %d schedule range [%d, %d) is "
                     "reversed" % (pid, lo, hi))
            if next_lo != hi:
                fail("--pipeline: node %d schedule ranges not contiguous: "
                     "[.., %d) then [%d, ..)" % (pid, hi, next_lo))
        if spans[-1][2] != -1 and not allow_partial:
            fail("--pipeline: node %d never scheduled the final "
                 "range_hi=-1 batch" % pid)
        # Causality: a range is only schedulable once every source stream's
        # watermark passed it (or the stream ended).
        node_tracks = tracks.get(pid, [])
        for ts, lo, hi in spans:
            if hi == -1:
                continue
            for src in range(num_nodes):
                for table in ("r", "s"):
                    covered = any(
                        t_ts <= ts and t_src == src and t_table == table and
                        (t_eos == 1 or t_mark >= hi)
                        for t_ts, t_src, t_table, t_mark, t_eos
                        in node_tracks)
                    if not covered:
                        fail("--pipeline: node %d scheduled [%d, %d) at "
                             "ts=%d before source %d delivered table %s "
                             "up to %d" % (pid, lo, hi, ts, src, table, hi))
            checked_ranges += 1
    print("pipeline schema check passed: %d mb span(s), %d credit "
          "sample(s), %d node(s), %d causal range(s)" %
          (len(mb_spans), credit_events, num_nodes, checked_ranges))


def check_trace(path, pipeline=False, allow_partial=False,
                expect_drr=False):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        fail("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        fail("%s is not valid JSON: %s" % (path, e))
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("expected a non-empty traceEvents array")

    phase_spans = 0
    nic_counters = 0
    process_names = 0
    for i, e in enumerate(events):
        where = "event %d" % i
        if not isinstance(e, dict):
            fail("%s: not an object: %r" % (where, e))
        ph = e.get("ph")
        if ph not in ALLOWED_PHASES:
            fail("%s: ph %r not in %s" % (where, ph, sorted(ALLOWED_PHASES)))
        name = e.get("name")
        if not isinstance(name, str) or not name:
            fail("%s: missing/empty name" % where)
        for key in ("pid", "tid"):
            v = e.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail("%s (%s): bad %s %r" % (where, name, key, v))
        if ph == "M":
            if name == "process_name":
                if not isinstance(e.get("args", {}).get("name"), str):
                    fail("%s: process_name without args.name" % where)
                process_names += 1
            continue
        ts = e.get("ts")
        if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
            fail("%s (%s): bad ts %r" % (where, name, ts))
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, int) or isinstance(dur, bool) or dur < 0:
                fail("%s (%s): X event with bad dur %r" % (where, name, dur))
            if e.get("cat") == "phase":
                phase_spans += 1
        elif ph == "C":
            value = e.get("args", {}).get("value")
            if not isinstance(value, int) or isinstance(value, bool):
                fail("%s (%s): C event without integer args.value" %
                     (where, name))
            if name.startswith("nic."):
                nic_counters += 1
    if process_names == 0:
        fail("no process_name metadata (per-node lanes would be unlabeled)")
    if pipeline:
        # The event-driven fabric replaces the barrier fabric's phase spans
        # and NIC counters with micro-batch spans and credit counters.
        check_pipeline(events, allow_partial=allow_partial,
                       expect_drr=expect_drr)
        return
    if phase_spans == 0:
        fail("no 'phase'-category spans (fabric instrumentation missing)")
    if nic_counters == 0:
        fail("no nic.* counter events (NIC byte counters missing)")
    print("trace schema check passed: %d event(s), %d phase span(s), "
          "%d nic counter(s), %d process name(s)" %
          (len(events), phase_spans, nic_counters, process_names))


def check_explain(expect_zero_hot_split=False):
    explains = load_stdin("explains")
    for explain in explains:
        algo = explain.get("algorithm")
        if not isinstance(algo, str) or not algo:
            fail("explain without an algorithm name: %r" % explain)
        check_fields(explain, EXPLAIN_KEYS, algo)
        classes = explain["classes"]
        for cls in EXPLAIN_CLASSES:
            if cls not in classes:
                fail("%s: missing decision class %r" % (algo, cls))
            check_fields(classes[cls], {"keys": int, "bytes": int},
                         "%s class %s" % (algo, cls))
        # The audit must reconcile: class totals add up to the scheduled
        # bytes/keys, and the headline invariant holds when advertised.
        class_keys = sum(classes[c]["keys"] for c in EXPLAIN_CLASSES)
        class_bytes = sum(classes[c]["bytes"] for c in EXPLAIN_CLASSES)
        if class_keys != explain["total_keys"]:
            fail("%s: class keys sum %d != total_keys %d" %
                 (algo, class_keys, explain["total_keys"]))
        if class_bytes != explain["scheduled_bytes"]:
            fail("%s: class bytes sum %d != scheduled_bytes %d" %
                 (algo, class_bytes, explain["scheduled_bytes"]))
        if explain["matches_traffic"] and (
                explain["scheduled_bytes"] !=
                explain["traffic_scheduled_bytes"]):
            fail("%s: matches_traffic yet %d != %d" %
                 (algo, explain["scheduled_bytes"],
                  explain["traffic_scheduled_bytes"]))
        if explain["saved_vs_hash_bytes"] != (
                explain["hash_join_bytes"] - explain["scheduled_bytes"]):
            fail("%s: saved_vs_hash_bytes is not hash - scheduled" % algo)
        # Pins the no-skew guarantee: on workloads below the hot-key
        # threshold (or with splitting off) not a single key may be split.
        if expect_zero_hot_split:
            hot = classes["hot_split"]
            if hot["keys"] != 0 or hot["bytes"] != 0:
                fail("%s: expected zero hot_split decisions, got %d key(s) / "
                     "%d byte(s)" % (algo, hot["keys"], hot["bytes"]))
            for rec in explain["top_keys"]:
                if rec["chosen_split"] != 0:
                    fail("%s: top key %d has chosen_split=%d on a run that "
                         "must not split" %
                         (algo, rec["key"], rec["chosen_split"]))
        for rec in explain["top_keys"]:
            check_fields(rec, TOP_KEY_KEYS,
                         "%s top key %r" % (algo, rec.get("key")))
            if rec["class"] not in EXPLAIN_CLASSES:
                fail("%s: top key %d has unknown class %r" %
                     (algo, rec["key"], rec["class"]))
    print("explain schema check passed: %d algorithm(s), %d audited key(s)" %
          (len(explains), sum(e["total_keys"] for e in explains)))


# Wait class -> the resource its waits are charged to (obs/blame.h).
BLAME_RESOURCE_FOR_CLASS = {
    "compute": "cpu",
    "cpu_queue": "cpu",
    "credit_hol": "link",
    "credit_exhausted": "link",
    "egress_hol": "nic.egress",
    "egress_queue": "nic.egress",
    "drr_wait": "nic.egress",
    "ingress_queue": "nic.ingress",
    "wire": "wire",
}
BLAME_KEYS = {
    "algorithm": str,
    "num_nodes": int,
    "makespan_us": int,
    "bucket_sum_us": int,
    "reconciled": bool,
    "path_segments": int,
    "classes": dict,
    "hol_us": int,
    "hol_share": float,
    "buckets": list,
    "top_edges": list,
}
BLAME_BUCKET_KEYS = {
    "node": int, "resource": str, "stage": str, "class": str, "us": int,
}
BLAME_EDGE_KEYS = {
    "start_us": int, "end_us": int, "node": int, "resource": str,
    "stage": str, "class": str, "label": str,
}


def check_blame():
    reports = load_stdin("blame reports")
    total_segments = 0
    for report in reports:
        algo = report.get("algorithm")
        if not isinstance(algo, str) or not algo:
            fail("blame report without an algorithm name: %r" % report)
        where = "blame %s" % algo
        check_fields(report, BLAME_KEYS, where)
        classes = report["classes"]
        if set(classes) != set(BLAME_RESOURCE_FOR_CLASS):
            fail("%s: wait classes %s != expected %s" %
                 (where, sorted(classes), sorted(BLAME_RESOURCE_FOR_CLASS)))
        for cls, us in classes.items():
            if not isinstance(us, int) or isinstance(us, bool) or us < 0:
                fail("%s: class %s has bad micros %r" % (where, cls, us))
        # The reconciliation invariant — the whole point of the report:
        # every attributed microsecond sums back to the makespan exactly.
        class_sum = sum(classes.values())
        if class_sum != report["bucket_sum_us"]:
            fail("%s: class sum %d != bucket_sum_us %d" %
                 (where, class_sum, report["bucket_sum_us"]))
        if report["bucket_sum_us"] != report["makespan_us"]:
            fail("%s: bucket_sum_us %d != makespan_us %d" %
                 (where, report["bucket_sum_us"], report["makespan_us"]))
        if report["reconciled"] is not True:
            fail("%s: reconciled is not true" % where)
        if report["hol_us"] != (classes["credit_hol"] +
                                classes["egress_hol"]):
            fail("%s: hol_us %d != credit_hol + egress_hol" %
                 (where, report["hol_us"]))
        bucket_sum = 0
        for i, bucket in enumerate(report["buckets"]):
            bwhere = "%s bucket %d" % (where, i)
            check_fields(bucket, BLAME_BUCKET_KEYS, bwhere)
            if bucket["us"] <= 0:
                fail("%s: non-positive micros %d" % (bwhere, bucket["us"]))
            if bucket["class"] not in BLAME_RESOURCE_FOR_CLASS:
                fail("%s: unknown wait class %r" % (bwhere, bucket["class"]))
            if bucket["resource"] != BLAME_RESOURCE_FOR_CLASS[bucket["class"]]:
                fail("%s: class %s charged to resource %r, expected %r" %
                     (bwhere, bucket["class"], bucket["resource"],
                      BLAME_RESOURCE_FOR_CLASS[bucket["class"]]))
            if not 0 <= bucket["node"] < report["num_nodes"]:
                fail("%s: node %d out of range" % (bwhere, bucket["node"]))
            bucket_sum += bucket["us"]
        if bucket_sum != report["bucket_sum_us"]:
            fail("%s: listed buckets sum to %d, header says %d" %
                 (where, bucket_sum, report["bucket_sum_us"]))
        for i, edge in enumerate(report["top_edges"]):
            ewhere = "%s edge %d" % (where, i)
            check_fields(edge, BLAME_EDGE_KEYS, ewhere)
            if not 0 <= edge["start_us"] < edge["end_us"]:
                fail("%s: bad interval [%d, %d)" %
                     (ewhere, edge["start_us"], edge["end_us"]))
            if edge["end_us"] > report["makespan_us"]:
                fail("%s: edge ends at %d, past makespan %d" %
                     (ewhere, edge["end_us"], report["makespan_us"]))
            if edge["class"] not in BLAME_RESOURCE_FOR_CLASS:
                fail("%s: unknown wait class %r" % (ewhere, edge["class"]))
            if edge["resource"] != BLAME_RESOURCE_FOR_CLASS[edge["class"]]:
                fail("%s: class %s charged to resource %r, expected %r" %
                     (ewhere, edge["class"], edge["resource"],
                      BLAME_RESOURCE_FOR_CLASS[edge["class"]]))
            if not 0 <= edge["node"] < report["num_nodes"]:
                fail("%s: node %d out of range" % (ewhere, edge["node"]))
        total_segments += report["path_segments"]
    print("blame schema check passed: %d report(s), %d critical-path "
          "segment(s), all reconciled to the microsecond" %
          (len(reports), total_segments))


def main():
    global MODE
    args = sys.argv[1:]
    flags = ("--expect-zero-recovery", "--expect-zero-hot-split",
             "--pipeline", "--allow-partial", "--expect-drr")
    expect_zero_recovery, expect_zero_hot_split, pipeline, allow_partial, \
        expect_drr = (flag in args for flag in flags)
    args = [a for a in args if a not in flags]
    if args:
        MODE = args[0]
    if args == ["profile"]:
        check_profile(expect_zero_recovery, expect_zero_hot_split)
    elif len(args) == 2 and args[0] == "trace":
        check_trace(args[1], pipeline=pipeline, allow_partial=allow_partial,
                    expect_drr=expect_drr)
    elif args == ["explain"]:
        check_explain(expect_zero_hot_split)
    elif args == ["blame"]:
        check_blame()
    else:
        sys.exit("usage: check_schema.py profile [--expect-zero-recovery] "
                 "[--expect-zero-hot-split] < profile.json\n"
                 "       check_schema.py trace FILE [--pipeline] "
                 "[--allow-partial] [--expect-drr]\n"
                 "       check_schema.py explain "
                 "[--expect-zero-hot-split] < explain.json\n"
                 "       check_schema.py blame < blame.json")


if __name__ == "__main__":
    main()
