#!/usr/bin/env bash
# CI gate: lint src/ for infallible wrappers, build and run the test suite
# under ASan and UBSan, and run the thread-pool, fabric and pipelined tests
# under TSan. The tjsim CLI smokes (schema pins, exit codes, recovery) are
# ctest entries in the integration and fault labels, so they run sanitized
# here.
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
  # The hot-path containers, the tracker merge and the wire decoders must
  # stay in the sanitized unit leg: their probe and cursor arithmetic and
  # their bounds checks on untrusted bytes are exactly what ASan/UBSan
  # exist to check. Guard against a CMake registration regression silently
  # shrinking that coverage.
  # (Captured once per label: `ctest -N | grep -q` would trip pipefail when
  # grep exits at the first match and ctest takes a SIGPIPE.)
  unit_listing="$(ctest --test-dir "${dir}" -N -L unit)"
  for required in kway_merge_test flat_table_test buffer_pool_test \
                  tracker_test hot_split_test zipf_workload_test \
                  pipelined_fabric_test pipelined_track_join_test \
                  blame_test egress_sched_test codec_fuzz_test bloom_test \
                  semi_join_test; do
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

# The batch-scoped ParallelFor is lock-order sensitive; run its tests (and
# the rest of tj_common's concurrency surface) under TSan even when the
# caller only asked for the default sanitizers. The barrier fabric's
# thread-pooled phases (per-node send queues and sent-frame logs; only
# the barrier writes the ledgers) run here too. The pipelined fabric's
# event loop and credit accounting ride along: the fabric is specified as
# single-threaded, and TSan proves the implementation never quietly grows
# a second thread.
if [[ ! " ${sanitizers[*]} " == *" thread "* ]]; then
  echo "=== thread: thread_pool + fabric tests under TSan (build-tsan) ==="
  cmake -B build-tsan -S . -DTJ_SANITIZE=thread "${launcher_flags[@]}" >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target thread_pool_test \
      fabric_test parallel_fabric_test pipelined_fabric_test \
      pipelined_track_join_test egress_sched_test
  ctest --test-dir build-tsan \
      -R '^(thread_pool_test|fabric_test|parallel_fabric_test|pipelined_fabric_test|pipelined_track_join_test|egress_sched_test)$' \
      --output-on-failure
fi

echo "ci.sh: all sanitizer runs passed"
