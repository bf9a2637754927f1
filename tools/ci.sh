#!/usr/bin/env bash
# CI gate: lint src/ for infallible wrappers, build and run the test suite
# under ASan and UBSan, smoke the profiling CLI against its JSON schema, and
# run the thread-pool tests under TSan.
#
#   tools/ci.sh            # default gates: address + undefined
#   tools/ci.sh address    # just one sanitizer
#
# Each sanitizer gets its own binary dir (build-asan/, build-ubsan/,
# build-tsan/) so the plain build/ tree is never polluted with
# instrumented objects.
set -euo pipefail

cd "$(dirname "$0")/.."

# One fallible API: the library returns Status/Result, so a wrapper that
# CHECKs a result's ok() and aborts must not come back into src/.
if grep -rnE 'TJ_CHECK\(.*\.ok\(\)\)' src; then
  echo "ci.sh: src/ must propagate Status/Result, not CHECK .ok()" >&2
  exit 1
fi

sanitizers=("${@:-address}" )
if [[ $# -eq 0 ]]; then
  sanitizers=(address undefined)
fi

for san in "${sanitizers[@]}"; do
  dir="build-${san}"
  case "${san}" in
    address) dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread) dir=build-tsan ;;
    *) echo "unknown sanitizer '${san}' (address|undefined|thread)" >&2; exit 1 ;;
  esac
  echo "=== ${san}: configure + build (${dir}) ==="
  # Honor ccache exactly like the workflow does: sanitizer rebuilds are the
  # most expensive part of the gate and cache perfectly per-sanitizer.
  launcher_flags=()
  if command -v ccache >/dev/null; then
    launcher_flags=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                    -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  fi
  cmake -B "${dir}" -S . -DTJ_SANITIZE="${san}" "${launcher_flags[@]}" >/dev/null
  cmake --build "${dir}" -j "$(nproc)"
  # The hot-path containers and the tracker merge must stay in the
  # sanitized unit leg: their probe/tombstone and cursor arithmetic is
  # exactly what ASan/UBSan exist to check. Guard against a CMake
  # registration regression silently shrinking that coverage.
  # (Captured once per label: `ctest -N | grep -q` would trip pipefail when
  # grep exits at the first match and ctest takes a SIGPIPE.)
  unit_listing="$(ctest --test-dir "${dir}" -N -L unit)"
  for required in kway_merge_test flat_table_test buffer_pool_test \
                  tracker_test hot_split_test zipf_workload_test \
                  pipelined_fabric_test pipelined_track_join_test \
                  blame_test egress_sched_test; do
    if ! grep -q " ${required}\$" <<<"${unit_listing}"; then
      echo "ci.sh: ${required} missing from the unit label in ${dir}" >&2
      exit 1
    fi
  done
  # The chaos seed grid and the recovery loop are the crash-safety proof;
  # they must stay in the sanitized fault leg the same way.
  fault_listing="$(ctest --test-dir "${dir}" -N -L fault)"
  for required in chaos_test recovery_test reliable_fabric_test; do
    if ! grep -q " ${required}\$" <<<"${fault_listing}"; then
      echo "ci.sh: ${required} missing from the fault label in ${dir}" >&2
      exit 1
    fi
  done
  # Labels run cheapest-first so a broken kernel fails in the unit leg
  # before the integration/fault joins spend their (longer) timeouts.
  for label in unit integration fault; do
    echo "=== ${san}: ctest -L ${label} ==="
    ctest --test-dir "${dir}" -L "${label}" --output-on-failure
  done
done

# Profiling smoke: the structured output of `tjsim --profile=json` is an
# interface (EXPERIMENTS.md maps it onto the paper's tables), so CI pins
# its schema. The asan tree always exists at this point when the default
# sanitizer set ran; otherwise reuse whatever tree the caller built.
first="${sanitizers[0]}"
case "${first}" in
  address) smoke_dir=build-asan ;;
  undefined) smoke_dir=build-ubsan ;;
  thread) smoke_dir=build-tsan ;;
esac
echo "=== profile smoke: tjsim --profile=json | check_profile_schema ==="
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=500 --smult=2 \
    --algo=hj,bj-r,2tj-r,3tj,4tj --profile=json \
  | python3 tools/check_profile_schema.py --expect-zero-recovery
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=400 --fault-drop=0.02 \
    --fault-corrupt=0.02 --fault-retries=64 --algo=hj,4tj --profile=json \
  | python3 tools/check_profile_schema.py

# Recovery smoke: a replicated cluster must ride out a fail-stop crash and
# still verify every algorithm's digest; the CLI's exit-code contract
# (usage -> 1, fault-induced failure -> 3) is part of the interface.
echo "=== recovery smoke: tjsim --replicas=2 + crash, exit codes ==="
"${smoke_dir}/tools/tjsim" --nodes=6 --keys=2000 --replicas=2 \
    --fault-crash-node=2 --fault-crash-phase=1 --algo=all >/dev/null
"${smoke_dir}/tools/tjsim" --nodes=6 --keys=500 --replicas=2 \
    --fault-crash-node=1 --fault-crash-phase=1 --algo=3tj,hj \
    --profile=json | python3 tools/check_profile_schema.py
rc=0; "${smoke_dir}/tools/tjsim" --bogus-flag 2>/dev/null || rc=$?
if [[ "${rc}" -ne 1 ]]; then
  echo "ci.sh: usage error exited ${rc}, expected 1" >&2; exit 1
fi
rc=0; "${smoke_dir}/tools/tjsim" --nodes=4 --keys=300 --fault-crash-node=1 \
    --algo=3tj >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 3 ]]; then
  echo "ci.sh: fault-induced failure exited ${rc}, expected 3" >&2; exit 1
fi

# Observability smoke: the Chrome trace export and the EXPLAIN audit are
# interfaces too (README documents the Perfetto workflow, EXPERIMENTS.md
# maps decision classes onto the paper's cost terms), so pin their schemas
# the same way. The explain check also re-verifies the exact-reconciliation
# invariant (class byte sums == audited scheduled bytes).
echo "=== obs smoke: tjsim --trace / --explain=json | check_trace_schema ==="
trace_tmp="$(mktemp -t tjsim_trace.XXXXXX.json)"
trap 'rm -f "${trace_tmp}"' EXIT
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=300 --algo=hj,4tj \
    --trace="${trace_tmp}" >/dev/null
python3 tools/check_trace_schema.py trace "${trace_tmp}"
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=500 --smult=2 \
    --algo=2tj-r,3tj,4tj --explain=json \
  | python3 tools/check_trace_schema.py explain

# Hot-key splitting smoke: on a skewed run with the threshold armed, the
# split decisions must still reconcile byte-for-byte; on a uniform run the
# same threshold must produce zero hot_split decisions and zero fragment
# traffic (EXPLAIN and the step profile both pin it).
echo "=== hot-split smoke: skewed reconciliation + uniform zero-split pins ==="
"${smoke_dir}/tools/tjsim" --nodes=8 --keys=5000 --zipf=1.2 \
    --hot-key-threshold=10000 --algo=4tj --explain=json \
  | python3 tools/check_trace_schema.py explain
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=2000 \
    --hot-key-threshold=10000 --algo=4tj --explain=json \
  | python3 tools/check_trace_schema.py explain --expect-zero-hot-split
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=2000 \
    --hot-key-threshold=10000 --algo=hj,4tj --profile=json \
  | python3 tools/check_profile_schema.py --expect-zero-recovery \
      --expect-zero-hot-split

# Pipelined-fabric smoke: the event-driven micro-batch trace is an
# interface too (the CI makespan gate and EXPERIMENTS.md both read it), so
# pin its span/credit schema and the causal track-before-schedule
# invariant the same way.
echo "=== pipeline smoke: tjsim --pipeline --trace | check_trace_schema --pipeline ==="
pipeline_trace_tmp="$(mktemp -t tjsim_pipeline_trace.XXXXXX.json)"
trap 'rm -f "${trace_tmp}" "${pipeline_trace_tmp}"' EXIT
# One algorithm per trace: each pipelined run restarts its modeled clock,
# so a shared file would interleave two timelines.
for algo in 2tj-r 3tj 4tj; do
  "${smoke_dir}/tools/tjsim" --nodes=4 --keys=20000 --rmult=2 --smult=3 \
      --algo="${algo}" --pipeline --trace="${pipeline_trace_tmp}" >/dev/null
  python3 tools/check_trace_schema.py trace "${pipeline_trace_tmp}" --pipeline
done
# Faulted pipelined traces obey the same schema: a recovered drop/retry run
# satisfies every invariant, and a crash-faulted run (which exits 3 but
# still writes its partial trace) passes with --allow-partial.
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=20000 --rmult=2 --smult=3 \
    --algo=4tj --pipeline --fault-drop=0.02 --fault-retries=64 \
    --trace="${pipeline_trace_tmp}" >/dev/null
python3 tools/check_trace_schema.py trace "${pipeline_trace_tmp}" --pipeline
rc=0; "${smoke_dir}/tools/tjsim" --nodes=4 --keys=20000 --rmult=2 --smult=3 \
    --algo=4tj --pipeline --fault-crash-node=2 --fault-crash-phase=1 \
    --trace="${pipeline_trace_tmp}" >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 3 ]]; then
  echo "ci.sh: crashed pipelined run exited ${rc}, expected 3" >&2; exit 1
fi
python3 tools/check_trace_schema.py trace "${pipeline_trace_tmp}" \
    --pipeline --allow-partial

# Makespan-blame smoke: the critical-path report must reconcile to the
# microsecond (bucket sums == makespan_us), with valid wait classes and
# resource attributions — and the pipelined driver must refuse the
# recovery flags up front (exit 1) rather than silently ignoring them.
echo "=== blame smoke: tjsim --pipeline --blame=json | check_trace_schema blame ==="
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=20000 --rmult=2 --smult=3 \
    --algo=3tj,4tj --pipeline --blame=json \
  | python3 tools/check_trace_schema.py blame
"${smoke_dir}/tools/tjsim" --nodes=8 --keys=20000 --rmult=2 --smult=3 \
    --zipf=1.2 --hot-key-threshold=10000 --algo=4tj --pipeline \
    --fault-drop=0.02 --fault-retries=64 --blame=json \
  | python3 tools/check_trace_schema.py blame
rc=0; "${smoke_dir}/tools/tjsim" --nodes=4 --keys=500 --pipeline \
    --replicas=2 --algo=4tj >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 1 ]]; then
  echo "ci.sh: --pipeline with --replicas exited ${rc}, expected 1" >&2
  exit 1
fi
rc=0; "${smoke_dir}/tools/tjsim" --nodes=4 --keys=500 --blame=json \
    --algo=4tj >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 1 ]]; then
  echo "ci.sh: --blame without --pipeline exited ${rc}, expected 1" >&2
  exit 1
fi

# DRR egress-scheduler smoke: a drr run's trace must carry the deficit
# counter tracks and queued-wait spans (--expect-drr), its blame report
# must reconcile with the drr_wait class admitted, and the flag surface
# must reject bad values / missing prerequisites with exit 1.
echo "=== drr smoke: tjsim --egress-sched=drr --trace/--blame | check_trace_schema ==="
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=20000 --rmult=2 --smult=3 \
    --algo=4tj --pipeline --pipeline-chunk=1024 --egress-sched=drr \
    --trace="${pipeline_trace_tmp}" >/dev/null
python3 tools/check_trace_schema.py trace "${pipeline_trace_tmp}" \
    --pipeline --expect-drr
"${smoke_dir}/tools/tjsim" --nodes=4 --keys=20000 --rmult=2 --smult=3 \
    --algo=3tj,4tj --pipeline --egress-sched=drr --drr-quantum=2048 \
    --blame=json \
  | python3 tools/check_trace_schema.py blame
for bad in "--pipeline --egress-sched=wfq" "--egress-sched=drr" \
           "--pipeline --drr-quantum=4096"; do
  # shellcheck disable=SC2086
  rc=0; "${smoke_dir}/tools/tjsim" --nodes=4 --keys=500 --algo=4tj \
      ${bad} >/dev/null 2>&1 || rc=$?
  if [[ "${rc}" -ne 1 ]]; then
    echo "ci.sh: tjsim ${bad} exited ${rc}, expected 1" >&2; exit 1
  fi
done

# The batch-scoped ParallelFor is lock-order sensitive; run its tests (and
# the rest of tj_common's concurrency surface) under TSan even when the
# caller only asked for the default sanitizers. The pipelined fabric's
# event loop and credit accounting ride along: the fabric is specified as
# single-threaded, and TSan proves the implementation never quietly grows
# a second thread.
if [[ ! " ${sanitizers[*]} " == *" thread "* ]]; then
  echo "=== thread: thread_pool + pipelined fabric tests under TSan (build-tsan) ==="
  cmake -B build-tsan -S . -DTJ_SANITIZE=thread "${launcher_flags[@]}" >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target thread_pool_test \
      pipelined_fabric_test pipelined_track_join_test egress_sched_test
  ctest --test-dir build-tsan \
      -R 'thread_pool_test|pipelined_fabric_test|pipelined_track_join_test|egress_sched_test' \
      --output-on-failure
fi

echo "ci.sh: all sanitizer runs passed"
