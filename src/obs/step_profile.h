// De-pipelined step breakdowns (paper Tables 3/4) as structured records.
//
// Every distributed join entry point attaches a StepProfile to its
// JoinResult: one StepRecord (net/traffic.h) per barrier-separated phase,
// carrying the phase's measured wall seconds, its modeled network seconds,
// and the exact byte deltas the fabric accounted during that phase —
// goodput (first transmissions), local copies, and fault-recovery overhead
// (retransmits, duplicates, acks/nacks), each split by message type. The
// fabrics write the records themselves (net/fabric.h at each barrier,
// net/pipelined_fabric.h per stage), so algorithms label a phase once and
// the whole breakdown falls out; benches (table2/3/4) and
// `tjsim --profile` render the same records.
//
// Profiling is passive: it only reads the fabric's ledgers at each barrier,
// so enabling it changes neither join results nor any TrafficMatrix cell.
#ifndef TJ_OBS_STEP_PROFILE_H_
#define TJ_OBS_STEP_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/time_model.h"
#include "net/traffic.h"

namespace tj {

class Fabric;
class PipelinedFabric;

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
  /// runs — CI pins this via tools/check_schema.py profile.
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
  /// front of this profile's steps. Run-level fields are left alone: the
  /// caller that merges the two runs' traffic recomputes them.
  void Prepend(const StepProfile& prologue);
};

/// Builds the profile for a completed run from the steps of either fabric
/// (Fabric or PipelinedFabric), labels it with `algorithm`, and folds the
/// run's totals into MetricsRegistry::Global() ("join.runs", "join.phases",
/// "join.goodput_bytes", "join.retransmit_bytes", "join.wall_seconds", ...).
template <typename AnyFabric>
StepProfile BuildStepProfile(const std::string& algorithm,
                             const AnyFabric& fabric);

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
