// Grace hash join over the network — the predominant distributed join and
// the paper's main baseline.
//
// Both tables are hash-partitioned on the join key across all nodes
// (destination = hash(key) mod N), then each node joins its received
// partitions locally with sort-merge join. Expected network traffic is
// (1 - 1/N) of both tables' full width.
#ifndef TJ_BASELINE_HASH_JOIN_H_
#define TJ_BASELINE_HASH_JOIN_H_

#include "core/join_types.h"
#include "storage/table.h"

namespace tj {

/// Runs the distributed hash join. Inputs are not modified.
///
/// Fails with Status::DataLoss / Status::Corruption (never aborts, never a
/// partial result) on unrecoverable faults under an active
/// config.fault_policy — see core/track_join.h.
Result<JoinResult> TryRunHashJoin(const PartitionedTable& r,
                                  const PartitionedTable& s,
                                  const JoinConfig& config);

}  // namespace tj

#endif  // TJ_BASELINE_HASH_JOIN_H_
