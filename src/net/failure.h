// Structured failure reporting for the reliable fabric.
//
// When a phase fails, the bare Status tells a human what went wrong; the
// FailureReport tells the recovery machinery *exactly* what is broken:
// which nodes are confirmed dead (fail-stop), which are suspected dead
// (straggler past the modeled phase deadline), and which directed links
// exhausted their retry budget with which sequence ranges still missing.
// RecoveryManager (src/core/recovery.h) uses the report to decide between
// a backoff-and-retry (transient loss) and a replica failover (dead node).
#ifndef TJ_NET_FAILURE_H_
#define TJ_NET_FAILURE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/traffic.h"

namespace tj {

/// One directed link that still had undelivered frames when the barrier's
/// retry budget ran out, with the exhausted sequence range.
struct LinkLoss {
  uint32_t src = 0;
  uint32_t dst = 0;
  /// Inclusive range of per-link sequence numbers still missing.
  uint32_t seq_begin = 0;
  uint32_t seq_end = 0;
  /// Frames still missing on this link (<= seq_end - seq_begin + 1; the
  /// range may have recovered holes).
  uint64_t frames = 0;
};

/// What the reliable barrier knows about a failed phase. Populated by
/// Fabric on every RunPhaseReliable error path.
struct FailureReport {
  /// Phase that failed (name and 0-based global index).
  std::string phase;
  uint64_t phase_index = 0;
  /// Nodes confirmed fail-stopped (crash-faulted at or before this phase).
  std::vector<uint32_t> dead_nodes;
  /// Nodes promoted to suspected-dead by the modeled phase deadline.
  std::vector<uint32_t> suspected_nodes;
  /// Links whose retry budget ran out, with exhausted seq ranges.
  std::vector<LinkLoss> lost_links;
  /// Retry rounds the barrier ran before giving up (0 when the failure was
  /// not message loss).
  uint32_t retry_rounds = 0;

  bool empty() const {
    return dead_nodes.empty() && suspected_nodes.empty() &&
           lost_links.empty();
  }

  /// True when nothing is known-dead or suspected-dead: the loss is pure
  /// message-level attrition and a retry of the same topology can succeed.
  bool transient() const {
    return dead_nodes.empty() && suspected_nodes.empty();
  }

  /// All nodes the recovery layer must treat as gone (dead + suspected).
  std::vector<uint32_t> unusable_nodes() const {
    std::vector<uint32_t> all = dead_nodes;
    all.insert(all.end(), suspected_nodes.begin(), suspected_nodes.end());
    return all;
  }
};

/// Side-channel a failed join run fills for its caller. Status strings stay
/// human-oriented; this carries the machine-readable failure report plus
/// the partial run's accounting, so RecoveryManager can bill a failed
/// attempt's wire bytes to the recovery ledger and pick a failover plan
/// without parsing error messages. Wire a sink with
/// Fabric::SetDiagnosticsSink / JoinConfig::diagnostics.
struct RunDiagnostics {
  FailureReport failure;
  /// Traffic the failed attempt put on the wire before dying.
  TrafficMatrix traffic;
  /// Modeled wall time the failed attempt burned, per phase.
  std::vector<std::pair<std::string, double>> phase_seconds;

  void Reset() {
    failure = FailureReport();
    traffic = TrafficMatrix();
    phase_seconds.clear();
  }
};

}  // namespace tj

#endif  // TJ_NET_FAILURE_H_
