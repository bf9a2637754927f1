// Query-level fault recovery: whole-query replay with replica failover.
//
// Because workloads are synthesized deterministically and the fabric
// delivers deterministically, a failed query can be replayed bit-exactly
// from its retained inputs — the inputs are the only "checkpoint", no
// serialized heap or phase log is kept.
//
// RecoveryManager drives the loop:
//   * run the join (attempt 0 uses the caller's fault seed bit-exactly, so
//     a run that never fails is byte-identical to an unmanaged run);
//   * on a *transient* failure (message loss with no node implicated),
//     charge a modeled exponential backoff and replay with a re-derived
//     fault seed;
//   * on a confirmed node death (fail-stop crash) or a suspected death
//     (straggler past the modeled phase deadline), re-plan the query
//     against the surviving replicas: dead partitions re-home onto their
//     chained-declustering holders (storage/replica.h), survivors compact
//     to a dense id space, and the join replays on the degraded cluster —
//     the per-key scheduler re-prices every transfer against the new
//     placement, and re-homed keys are tagged `failover` in the EXPLAIN
//     audit;
//   * give up after the attempt budget with a typed Unavailable error —
//     never an abort, a hang, or a partial result.
//
// Accounting: the successful attempt's traffic is re-indexed onto the
// original cluster's node ids; every failed attempt's wire bytes land on
// the TrafficMatrix recovery ledger (recovery_bytes), kept separate from
// goodput so "what the answer cost" and "what the failures cost" never mix.
#ifndef TJ_CORE_RECOVERY_H_
#define TJ_CORE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/join_types.h"
#include "storage/replica.h"

namespace tj {

struct RecoveryOptions {
  /// Total attempt budget, the first run included. 1 = no recovery.
  uint32_t max_attempts = 4;
  /// Modeled backoff before the first transient retry; doubles (by
  /// `backoff_multiplier`) per consecutive retry. Failovers do not back
  /// off — the replacement topology is available immediately.
  double backoff_initial_seconds = 0.05;
  double backoff_multiplier = 2.0;
};

/// What recovery did for one query.
struct RecoveryReport {
  /// Attempts actually run (1 = first try succeeded).
  uint32_t attempts = 0;
  /// Replica failovers performed (distinct re-plans, not dead nodes).
  uint32_t failovers = 0;
  /// Transient retries performed (backoff + replay, same topology).
  uint32_t retries = 0;
  /// Nodes excluded from the final topology, original ids, ascending.
  std::vector<uint32_t> dead_nodes;
  /// Modeled seconds failed attempts burned before their failure.
  double wasted_seconds = 0;
  /// Modeled exponential-backoff seconds charged before retries.
  double backoff_seconds = 0;
  /// Modeled failover latency: wasted_seconds + backoff_seconds — how much
  /// later the answer arrived compared to a failure-free run.
  double recovery_seconds = 0;
  /// Wire bytes failed attempts burned (== the result's recovery ledger).
  uint64_t recovery_bytes = 0;
};

/// Any distributed join entry point with the Try* signature. The runner is
/// called once per attempt with the (possibly degraded) inputs and a
/// per-attempt JoinConfig.
using JoinRunner = std::function<Result<JoinResult>(
    const PartitionedTable& r, const PartitionedTable& s,
    const JoinConfig& config)>;

class RecoveryManager {
 public:
  explicit RecoveryManager(RecoveryOptions options = {})
      : options_(options) {}

  /// Runs `runner` under the recovery loop. `r` and `s` must share the
  /// original cluster's node count. On success the JoinResult's traffic is
  /// expressed in original node ids with the recovery ledger filled; on
  /// budget exhaustion (or an unrecoverable placement) the error is a
  /// typed Status — Unavailable for exhausted budget / lost partitions,
  /// the runner's own code when the failure is not fault-shaped.
  Result<JoinResult> Run(const ReplicatedTable& r, const ReplicatedTable& s,
                         const JoinConfig& config, const JoinRunner& runner);

  /// Valid after Run() returns (success or failure).
  const RecoveryReport& report() const { return report_; }

 private:
  RecoveryOptions options_;
  RecoveryReport report_;
};

/// Convenience wrapper: one-shot RecoveryManager. Fills `report` (if
/// non-null) with what recovery did.
Result<JoinResult> RunWithRecovery(const ReplicatedTable& r,
                                   const ReplicatedTable& s,
                                   const JoinConfig& config,
                                   const RecoveryOptions& options,
                                   const JoinRunner& runner,
                                   RecoveryReport* report = nullptr);

/// True for Status codes that indicate an injected/modeled fault rather
/// than a usage or programming error: DataLoss (message loss, crash),
/// DeadlineExceeded (straggler promotion), Unavailable (no surviving
/// replica / budget exhausted) and Corruption (undetected wire damage).
/// Recovery retries exactly these; tjsim maps them to a dedicated exit
/// code.
bool IsFaultInduced(StatusCode code);

}  // namespace tj

#endif  // TJ_CORE_RECOVERY_H_
