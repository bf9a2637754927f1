// Broadcast (fragment-and-replicate) join baseline.
//
// One table is replicated to every node; the other never moves. Network
// traffic is (N-1) × the broadcast table's full width — only competitive
// when that table is very small (paper Section 3.1).
#ifndef TJ_BASELINE_BROADCAST_JOIN_H_
#define TJ_BASELINE_BROADCAST_JOIN_H_

#include "core/join_types.h"
#include "storage/table.h"

namespace tj {

/// Runs the broadcast join; `direction` selects the replicated table
/// (kRtoS broadcasts R, kStoR broadcasts S). Inputs are not modified.
///
/// Fails with Status::DataLoss / Status::Corruption (never aborts, never a
/// partial result) on unrecoverable faults under an active
/// config.fault_policy — see core/track_join.h.
Result<JoinResult> TryRunBroadcastJoin(const PartitionedTable& r,
                                       const PartitionedTable& s,
                                       const JoinConfig& config,
                                       Direction direction);

}  // namespace tj

#endif  // TJ_BASELINE_BROADCAST_JOIN_H_
