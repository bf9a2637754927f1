// Distributed group-by aggregation.
//
// The paper's motivating queries are "4-6 joins followed by aggregation"
// (Section 4.1); this operator completes that pipeline over the joins'
// materialized outputs. Two strategies:
//
//  * naive: hash-shuffle every row to the group's owner node, aggregate
//    there — traffic proportional to the input;
//  * pre-aggregated: aggregate locally first and shuffle one partial per
//    (node, group) — traffic proportional to distinct groups, the standard
//    optimization that mirrors track join's "ship less by knowing more".
//
// Grouping keys and aggregated values are little-endian integer fields of
// the input rows: either the join key itself or a slice of the payload.
#ifndef TJ_OPS_AGGREGATE_H_
#define TJ_OPS_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/traffic.h"
#include "storage/table.h"

namespace tj {

/// Field selector: the row's join key, or `bytes` payload bytes at
/// `offset`.
struct FieldRef {
  bool use_key = true;
  uint32_t offset = 0;
  uint32_t bytes = 0;

  static FieldRef Key() { return FieldRef{}; }
  static FieldRef Payload(uint32_t offset, uint32_t bytes) {
    return FieldRef{false, offset, bytes};
  }
};

struct AggregateConfig {
  FieldRef group_by = FieldRef::Key();
  /// Summed value (unsigned little-endian; wrap-around on overflow).
  FieldRef value = FieldRef::Payload(0, 4);
  /// Serialized group-key width on the wire.
  uint32_t group_bytes = 4;
  /// Serialized partial-sum / sum width on the wire and in the output.
  uint32_t sum_bytes = 8;
  /// Aggregate locally before shuffling.
  bool pre_aggregate = true;
};

struct AggregateResult {
  /// One row per distinct group: key = group, payload = sum (sum_bytes LE)
  /// followed by count (8 bytes LE), resident at hash(group) mod N.
  PartitionedTable output;
  TrafficMatrix traffic;
  std::vector<std::pair<std::string, double>> phase_seconds;
  uint64_t groups = 0;
  uint64_t input_rows = 0;
};

/// Runs the distributed aggregation over `table`. Fails with the fabric's
/// phase error (never a partial result) if a phase fails.
Result<AggregateResult> TryRunDistributedAggregate(
    const PartitionedTable& table, const AggregateConfig& config);

}  // namespace tj

#endif  // TJ_OPS_AGGREGATE_H_
