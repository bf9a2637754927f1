// EXPLAIN for track join: aggregates the per-key scheduler audit
// (core/schedule.h KeyScheduleAudit records) into a decision-class
// breakdown, cross-checks the modeled schedule costs against the run's
// actual TrafficMatrix, and renders the result as JSON or a table
// (`tjsim --explain=json|table`).
//
// The cross-check is exact by construction for 3-/4-phase track join with
// the default wire encodings: location and migration messages carry
// key_bytes + node_bytes per pair and broadcast/migration data carries
// key_bytes + payload per row — precisely the terms SelectiveBroadcastCost
// and PlanMigrateAndBroadcast count. 2-phase tracking omits counts
// (multiplicity is modeled as 1), so its modeled total undershoots actual
// traffic whenever keys repeat; matches_traffic reports the comparison
// either way.
#ifndef TJ_OBS_EXPLAIN_H_
#define TJ_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "net/traffic.h"

namespace tj {

/// Aggregated scheduler audit for one run.
struct ScheduleExplain {
  std::string algorithm;

  struct ClassTotals {
    uint64_t keys = 0;
    uint64_t bytes = 0;  ///< Sum of chosen per-key schedule costs.
  };
  /// Indexed by static_cast<int>(ScheduleClass).
  ClassTotals by_class[kNumScheduleClasses];

  uint64_t total_keys = 0;
  /// Sum of all chosen per-key schedule costs (the model's prediction of
  /// the scheduled network traffic).
  uint64_t scheduled_bytes = 0;
  /// What the run actually paid, from the TrafficMatrix: goodput network
  /// bytes of the eight schedule-driven message types (locations,
  /// migration instructions, broadcast data, migration data) ...
  uint64_t traffic_scheduled_bytes = 0;
  /// ... the tracking phase's key/count messages ...
  uint64_t tracking_bytes = 0;
  /// ... and the run's total goodput (tracking + scheduled for track join).
  uint64_t traffic_total_bytes = 0;
  /// True when scheduled_bytes == traffic_scheduled_bytes (exact for
  /// 3-/4-phase track join under the default encodings).
  bool matches_traffic = false;

  /// Sum of per-key Grace-hash-join costs: what hash-partitioning every
  /// matching tuple to its key's hash node would have moved.
  uint64_t hash_join_bytes = 0;
  /// hash_join_bytes - scheduled_bytes (negative: track join modeled more
  /// scheduled traffic than hash join would move, e.g. 2tj in the wrong
  /// direction).
  int64_t saved_vs_hash_bytes = 0;

  /// The top keys by chosen schedule cost, descending (the heavy hitters
  /// worth a human's attention), capped at the builder's top_k.
  std::vector<KeyScheduleAudit> top;
};

/// Aggregates `log`'s records and cross-checks them against `traffic`.
/// Also feeds the "schedule.key_cost_bytes" histogram in
/// MetricsRegistry::Global(). top_k bounds the heavy-hitter list.
ScheduleExplain BuildScheduleExplain(const std::string& algorithm,
                                     const ScheduleAuditLog& log,
                                     const TrafficMatrix& traffic,
                                     size_t top_k = 10);

/// JSON object (stable schema, checked by tools/check_schema.py explain).
std::string ToJson(const ScheduleExplain& explain);
/// Human-readable table: per-class totals plus the top-K key breakdown.
std::string ToTable(const ScheduleExplain& explain);

}  // namespace tj

#endif  // TJ_OBS_EXPLAIN_H_
