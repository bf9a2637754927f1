// Tracking-aware (rid-based, late-materialized) hash join — paper §3.2.
//
// The strongest hash-join variant the paper constructs before proving that
// 2-phase track join subsumes it:
//   1. Both tables ship their key columns (in row order, so record ids stay
//      implicit) to hash-designated nodes.
//   2. The hash node joins keys and, instead of fetching both payloads,
//      migrates the result to where the *wider* tuple already lives: it
//      returns the wider side's rids to their home nodes and tells the
//      narrower side's rows where to go.
//   3. Narrower-side tuples travel (key + payload) to the wider tuples'
//      nodes and are re-joined there by key.
//
// Network cost ≈ (tR+tS)·wk + tRS·(min(wR,wS) + wk + rids) — compare
// RidTrackingHashJoinCost() in costmodel/network_cost.h.
#ifndef TJ_CORE_RID_HASH_JOIN_H_
#define TJ_CORE_RID_HASH_JOIN_H_

#include "core/join_types.h"
#include "storage/table.h"

namespace tj {

/// Runs the rid-based tracking-aware hash join. Local rids are
/// `rid_bytes`-wide in rid messages (default 4: "globally unique rids must
/// be at least 4 bytes", used here as local id + the implicit stream id).
///
/// Fails with Status::DataLoss / Status::Corruption (never aborts, never a
/// partial result) on unrecoverable faults under an active
/// config.fault_policy — see core/track_join.h.
Result<JoinResult> TryRunRidHashJoin(const PartitionedTable& r,
                                     const PartitionedTable& s,
                                     const JoinConfig& config,
                                     uint32_t rid_bytes = 4);

}  // namespace tj

#endif  // TJ_CORE_RID_HASH_JOIN_H_
