#!/usr/bin/env python3
"""Seeded flag sweep over the tjsim CLI.

Runs a fixed list of small tjsim runs (1-64 nodes, at most 5,000 keys, each
with its own --seed) that cross the CLI's modes: every algorithm, Zipf skew
with hot-key splitting and balancing, delta/grouped wire formats, shuffled
input, every fault kind, crashes with and without replicas, the pipelined
driver under both egress policies down to 1-byte chunks and out to 64
nodes, and the EXPLAIN, blame and profile outputs. Each run must end in
the outcome its entry expects, and only in one of three ways:

  ok     exit 0, and stdout says "all algorithms verified equal" (tjsim
         cross-checks every algorithm's digest in-run and exits 1 on a
         mismatch, so every ok entry runs at least two algorithms); a run
         whose stdout is JSON must parse instead. A pipelined run's digest
         and row count must also equal a barrier hash join's on the same
         data and faults;
  usage  exit 1, with a message on stderr that names the listed flag;
  fault  exit 3, with a typed fault status (DataLoss, Unavailable or
         DeadlineExceeded) on stderr.

A signal, any other exit code or a timeout fails the sweep.

Usage: python3 tests/integration/flag_sweep_test.py <path to tjsim>
"""

import json
import re
import subprocess
import sys
import time

TIMEOUT_S = 20
FAULT_RE = re.compile(r"\b(DataLoss|Unavailable|DeadlineExceeded): ")
OUTCOME_RE = re.compile(r"^outcome: digest=(\w+) rows=(\d+) ", re.M)
# Flags a pipelined entry's barrier reference run leaves out: the pipelined
# driver's own, its blame and profile outputs, and the algorithm list.
PIPELINE_ONLY = ("--pipeline", "--pipeline-chunk", "--egress-sched",
                 "--drr-quantum", "--inbox-budget", "--blame", "--blame-top",
                 "--profile", "--algo")

SMALL = ["--nodes=4", "--keys=1000"]
ZIPF = ["--nodes=8", "--keys=5000", "--zipf=0.8"]

# (flags, expected): expected is "ok", "fault" or ("usage", flag name).
RUNS = [
    # Every algorithm, from one node to eight.
    (["--nodes=1", "--keys=500", "--seed=1", "--algo=all"], "ok"),
    (["--nodes=2", "--keys=2000", "--seed=2", "--algo=all"], "ok"),
    (["--nodes=3", "--keys=3000", "--seed=3", "--rmult=2", "--smult=3",
      "--algo=all"], "ok"),
    (["--nodes=8", "--keys=5000", "--seed=4", "--algo=all"], "ok"),
    (["--nodes=5", "--keys=2000", "--seed=5", "--collocation=intra",
      "--rmult=3", "--rpattern=2,1", "--smult=2", "--algo=all"], "ok"),
    (["--nodes=6", "--keys=2000", "--seed=6", "--collocation=inter",
      "--collocated=0.5", "--runmatched=300", "--sunmatched=200",
      "--algo=all"], "ok"),
    (["--nodes=4", "--keys=1000", "--seed=7", "--key-bytes=8",
      "--rpayload=4", "--spayload=40", "--algo=all"], "ok"),
    # Zipf with hot-key splitting, with and without balancing.
    (ZIPF + ["--seed=8", "--hot-key-threshold=50", "--algo=all"], "ok"),
    (ZIPF + ["--seed=9", "--hot-key-threshold=10", "--balance",
             "--algo=all"], "ok"),
    (ZIPF + ["--seed=10", "--hot-key-threshold=10",
             "--hot-key-max-split=2", "--algo=4tj,hj"], "ok"),
    (["--nodes=8", "--keys=2000", "--zipf=1.2", "--seed=11", "--balance",
      "--algo=4tj,3tj"], "ok"),
    # Wire formats and shuffled input.
    (SMALL + ["--seed=12", "--delta", "--group", "--rmult=2", "--smult=3",
              "--algo=all"], "ok"),
    (SMALL + ["--seed=13", "--delta", "--algo=all"], "ok"),
    (SMALL + ["--seed=14", "--shuffle", "--algo=all"], "ok"),
    (ZIPF + ["--seed=15", "--shuffle", "--group", "--hot-key-threshold=50",
             "--algo=4tj,2tj-s"], "ok"),
    # Every fault kind on the barrier drivers.
    (SMALL + ["--seed=16", "--fault-drop=0.05", "--algo=all"], "ok"),
    (SMALL + ["--seed=17", "--fault-corrupt=0.05", "--fault-retries=64",
              "--algo=all"], "ok"),
    (SMALL + ["--seed=18", "--fault-dup=0.05", "--algo=all"], "ok"),
    (SMALL + ["--seed=19", "--fault-reorder=0.3", "--rmult=2",
              "--algo=all"], "ok"),
    (SMALL + ["--seed=20", "--fault-crash-node=1", "--algo=3tj"], "fault"),
    (SMALL + ["--seed=21", "--fault-crash-node=2", "--fault-crash-phase=4",
              "--algo=4tj,hj"], "fault"),
    (SMALL + ["--seed=22", "--fault-drop=1.0", "--algo=2tj-r"], "fault"),
    (["--nodes=6", "--keys=2000", "--seed=23", "--replicas=2",
      "--fault-crash-node=2", "--fault-crash-phase=1", "--algo=all"], "ok"),
    (["--nodes=5", "--keys=1000", "--seed=24", "--replicas=2",
      "--fault-slow-node=1", "--fault-slow-seconds=5",
      "--phase-deadline=1", "--algo=4tj,hj"], "ok"),
    (SMALL + ["--seed=25", "--fault-slow-node=3", "--fault-slow-seconds=2",
              "--algo=all"], "ok"),
    # The pipelined driver under FIFO and DRR, down to 1-byte chunks and
    # out to 64 nodes.
    (SMALL + ["--seed=26", "--pipeline", "--algo=2tj-r,2tj-s,3tj,4tj"],
     "ok"),
    (SMALL + ["--seed=27", "--pipeline", "--egress-sched=drr",
              "--algo=2tj-r,2tj-s,3tj,4tj"], "ok"),
    (["--nodes=3", "--keys=200", "--seed=28", "--pipeline",
      "--pipeline-chunk=1", "--algo=2tj-r,3tj,4tj"], "ok"),
    (["--nodes=3", "--keys=200", "--seed=29", "--pipeline",
      "--pipeline-chunk=1", "--egress-sched=drr", "--algo=2tj-r,4tj"],
     "ok"),
    (ZIPF + ["--seed=30", "--hot-key-threshold=50", "--pipeline",
             "--pipeline-chunk=32", "--egress-sched=drr",
             "--drr-quantum=64", "--algo=2tj-r,4tj"], "ok"),
    (SMALL + ["--seed=31", "--pipeline", "--inbox-budget=8192",
              "--algo=3tj,4tj"], "ok"),
    (SMALL + ["--seed=32", "--pipeline", "--fault-drop=0.05",
              "--fault-reorder=0.2", "--fault-retries=64",
              "--algo=2tj-r,4tj"], "ok"),
    (SMALL + ["--seed=33", "--pipeline", "--fault-crash-node=2",
              "--fault-crash-phase=1", "--algo=4tj"], "fault"),
    (["--nodes=64", "--keys=5000", "--seed=41", "--pipeline",
      "--algo=2tj-r,4tj"], "ok"),
    (["--nodes=64", "--keys=5000", "--seed=42", "--pipeline",
      "--egress-sched=drr", "--algo=2tj-r,4tj"], "ok"),
    # EXPLAIN, blame and profile outputs.
    (SMALL + ["--seed=34", "--explain=table", "--explain-top=3",
              "--algo=2tj-r,3tj,4tj"], "ok"),
    (ZIPF + ["--seed=35", "--hot-key-threshold=50", "--explain=json",
             "--algo=hj,4tj"], "ok"),
    (SMALL + ["--seed=36", "--pipeline", "--blame=table", "--blame-top=5",
              "--algo=3tj,4tj"], "ok"),
    (SMALL + ["--seed=37", "--pipeline", "--egress-sched=drr",
              "--blame=json", "--algo=2tj-r,4tj"], "ok"),
    (SMALL + ["--seed=38", "--profile=table", "--algo=hj,4tj"], "ok"),
    (SMALL + ["--seed=39", "--profile=json", "--algo=all"], "ok"),
    (SMALL + ["--seed=40", "--pipeline", "--profile=table",
              "--algo=3tj,4tj"], "ok"),
    # Today's usage errors: exit 1 naming the flag.
    (["--bogus-flag"], ("usage", "--bogus-flag")),
    (["--nodes=0"], ("usage", "--nodes")),
    (SMALL + ["--fault-drop="], ("usage", "--fault-drop")),
    (SMALL + ["--fault-retries=0"], ("usage", "--fault-retries")),
    (["--zipf=1.1", "--keys=0"], ("usage", "--keys")),
    (["--keys=1000", "--key-bytes=1"], ("usage", "--key-bytes")),
    (["--nodes=8", "--fault-crash-node=99", "--algo=hj"],
     ("usage", "--fault-crash-node")),
    (["--collocation=intra", "--rmult=1", "--rpattern=2"],
     ("usage", "--rpattern")),
    (SMALL + ["--pipeline", "--algo=hj"], ("usage", "--pipeline")),
    (SMALL + ["--pipeline", "--delta", "--algo=4tj"], ("usage", "--delta")),
    (SMALL + ["--pipeline", "--bandwidth=1.25", "--algo=4tj"],
     ("usage", "--bandwidth")),
    (SMALL + ["--pipeline-chunk=1024", "--algo=4tj"],
     ("usage", "--pipeline-chunk")),
    (SMALL + ["--blame=json", "--algo=4tj"], ("usage", "--blame")),
    (SMALL + ["--pipeline", "--egress-sched=wfq", "--algo=4tj"],
     ("usage", "--egress-sched")),
    (SMALL + ["--pipeline", "--replicas=2", "--algo=4tj"],
     ("usage", "--replicas")),
]


def flag_name(flag):
    return flag.split("=", 1)[0]


def algorithms(flags):
    """The --algo entries a run names; tjsim's default is all of them."""
    for flag in flags:
        if flag_name(flag) == "--algo":
            return flag.split("=", 1)[1].split(",")
    return ["all"]


def run(tjsim, flags):
    """(exit code, stdout, stderr), or a string saying what went wrong."""
    try:
        proc = subprocess.run([tjsim] + flags, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if proc.returncode < 0:
        return f"killed by signal {-proc.returncode}: {proc.stderr[-500:]}"
    return proc.returncode, proc.stdout, proc.stderr


def check_ok(tjsim, flags, out):
    """Checks an ok run's output, given it exited 0."""
    if algorithms(flags) != ["all"] and len(algorithms(flags)) < 2:
        return "names one algorithm, so no digest is cross-checked"
    if any(f.endswith("=json") for f in flags):
        try:
            json.loads(out)
        except ValueError as e:
            return f"stdout is not JSON: {e}"
        return None
    outcome = OUTCOME_RE.search(out)
    if "all algorithms verified equal" not in out or outcome is None:
        return "exit 0 without 'all algorithms verified equal'"
    if "--pipeline" not in flags:
        return None
    reference = [f for f in flags if flag_name(f) not in PIPELINE_ONLY]
    ran = run(tjsim, reference + ["--algo=hj"])
    if isinstance(ran, str):
        return f"barrier reference run {ran}"
    code, ref_out, ref_err = ran
    ref_outcome = OUTCOME_RE.search(ref_out)
    if code != 0 or ref_outcome is None:
        return f"barrier reference run exit {code}: {ref_err[-500:]}"
    if outcome.groups() != ref_outcome.groups():
        return (f"digest/rows {outcome.groups()} differ from the barrier "
                f"hash join's {ref_outcome.groups()}")
    return None


def check(tjsim, flags, expected):
    """Returns None if the run ended as expected, else what went wrong."""
    ran = run(tjsim, flags)
    if isinstance(ran, str):
        return ran
    code, out, err = ran
    if expected == "ok":
        if code != 0:
            return f"exit {code}, expected 0: {err[-500:]}"
        return check_ok(tjsim, flags, out)
    if expected == "fault":
        if code != 3:
            return f"exit {code}, expected 3 (fault): {err[-500:]}"
        if not FAULT_RE.search(err):
            return f"exit 3 without a typed fault status: {err[-500:]}"
        return None
    _, flag = expected
    if code != 1:
        return f"exit {code}, expected 1 (usage error naming {flag})"
    if flag not in err:
        return f"usage error does not name {flag}: {err[-500:]}"
    return None


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    tjsim = sys.argv[1]
    start = time.monotonic()
    failures = 0
    for flags, expected in RUNS:
        problem = check(tjsim, flags, expected)
        if problem is not None:
            failures += 1
            print(f"FAIL tjsim {' '.join(flags)}: {problem}")
    elapsed = time.monotonic() - start
    print(f"{len(RUNS) - failures}/{len(RUNS)} runs ended as expected "
          f"in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
