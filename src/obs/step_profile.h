// De-pipelined step breakdowns (paper Tables 3/4) as structured records.
//
// Every distributed join entry point attaches a StepProfile to its
// JoinResult: one StepRecord per barrier-separated phase, carrying the
// phase's measured wall seconds, its modeled network seconds, and the exact
// byte deltas the fabric accounted during that phase — goodput (first
// transmissions), local copies, and fault-recovery overhead (retransmits,
// duplicates, acks/nacks), each split by message type. The records are
// produced by Fabric's phase-scoped instrumentation (net/fabric.h), so
// algorithms label a phase once at RunPhaseReliable and the whole breakdown
// falls out; benches (table2/3/4) and `tjsim --profile` render the same
// records.
//
// Profiling is passive: it only reads the fabric's ledgers at each barrier,
// so enabling it changes neither join results nor any TrafficMatrix cell.
#ifndef TJ_OBS_STEP_PROFILE_H_
#define TJ_OBS_STEP_PROFILE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/time_model.h"
#include "net/traffic.h"

namespace tj {

class Fabric;

/// One de-pipelined join step: what one phase cost on the CPU side, what it
/// put on the (simulated) wire, and what the fault protocol did to recover.
struct StepRecord {
  std::string phase;

  /// Measured wall seconds of the phase's CPU-side work (all nodes,
  /// barrier-to-barrier — the de-pipelined step time of Tables 3/4).
  double wall_seconds = 0;
  /// Modeled transfer seconds for this step: the phase's busiest NIC
  /// through the time model's per-node bandwidth.
  double net_seconds = 0;

  /// First-transmission network bytes (src != dst) this phase.
  uint64_t goodput_bytes = 0;
  /// Local (src == dst) copy bytes this phase.
  uint64_t local_bytes = 0;
  /// Fault-recovery overhead this phase: retransmitted frames, injected
  /// duplicate copies and ack/nack control messages.
  uint64_t retransmit_bytes = 0;
  /// The phase's NIC bottleneck: max over nodes of max(ingress, egress)
  /// goodput during this phase.
  uint64_t max_node_bytes = 0;

  /// Recovery-protocol work during this phase's barrier.
  uint64_t retransmitted_frames = 0;
  uint64_t nack_messages = 0;
  /// Injected faults observed during this phase.
  uint64_t frames_dropped = 0;
  uint64_t frames_corrupted = 0;
  uint64_t frames_duplicated = 0;

  /// Per-message-type splits of the three byte ledgers above.
  std::array<uint64_t, kNumMessageTypes> network_bytes_by_type{};
  std::array<uint64_t, kNumMessageTypes> local_bytes_by_type{};
  std::array<uint64_t, kNumMessageTypes> retransmit_bytes_by_type{};

  uint64_t NetworkBytes(MessageType type) const {
    return network_bytes_by_type[static_cast<int>(type)];
  }
  uint64_t LocalBytes(MessageType type) const {
    return local_bytes_by_type[static_cast<int>(type)];
  }
  uint64_t RetransmitBytes(MessageType type) const {
    return retransmit_bytes_by_type[static_cast<int>(type)];
  }
};

/// The full per-step breakdown of one join run.
struct StepProfile {
  std::string algorithm;
  uint32_t num_nodes = 0;
  std::vector<StepRecord> steps;
  /// Whole-run NIC bottleneck (TrafficMatrix::MaxNodeBytes of the final
  /// matrix) — the basis of Table 2's network seconds. Not the sum of the
  /// per-step bottlenecks: different phases may stress different nodes.
  uint64_t run_max_node_bytes = 0;
  /// Wire bytes failed attempts burned before recovery replayed the query
  /// (the TrafficMatrix recovery ledger). Run-level, not per step: failed
  /// attempts have no surviving step records. Exactly zero on pristine
  /// runs — CI pins this via tools/check_profile_schema.py.
  uint64_t recovery_bytes = 0;

  double TotalWallSeconds() const;
  /// Sum of the per-step modeled transfer times (de-pipelined steps run
  /// back to back, so step times add).
  double TotalNetSeconds() const;
  uint64_t TotalGoodputBytes() const;
  uint64_t TotalLocalBytes() const;
  uint64_t TotalRetransmitBytes() const;
  uint64_t TotalRetransmittedFrames() const;
  uint64_t TotalNackMessages() const;

  /// Whole-run per-type sums across steps (equal to the final
  /// TrafficMatrix's per-type totals).
  uint64_t NetworkBytes(MessageType type) const;
  uint64_t LocalBytes(MessageType type) const;
  uint64_t RetransmitBytes(MessageType type) const;

  /// The named step, or nullptr. Phases are unique per run.
  const StepRecord* Find(const std::string& phase) const;
  /// The named step's wall seconds, or 0 if absent.
  double WallSeconds(const std::string& phase) const;

  /// Recomputes every step's net_seconds under a different bandwidth
  /// (tjsim's --bandwidth flag).
  void ApplyTimeModel(const NetworkTimeModel& model);

  /// Splices a prologue's steps (e.g. the semi-join filter exchange) in
  /// front of this profile's steps.
  void Prepend(const StepProfile& prologue);
};

/// Builds the profile for a completed run from the fabric's per-phase
/// instrumentation, labels it with `algorithm`, prices transfers with
/// `model`, and folds the run's totals into MetricsRegistry::Global()
/// ("join.runs", "join.phases", "join.goodput_bytes",
/// "join.retransmit_bytes", "join.wall_seconds", ...).
StepProfile BuildStepProfile(const std::string& algorithm,
                             const Fabric& fabric,
                             const NetworkTimeModel& model = {});

/// JSON object: algorithm, nodes, totals, and one record per step (nonzero
/// per-type byte splits included).
std::string ToJson(const StepProfile& profile);
/// CSV rows (no header): one line per step. Columns as in StepCsvHeader().
std::string ToCsv(const StepProfile& profile);
/// The CSV header line for ToCsv rows.
std::string StepCsvHeader();
/// Human-readable aligned table.
std::string ToTable(const StepProfile& profile);

}  // namespace tj

#endif  // TJ_OBS_STEP_PROFILE_H_
