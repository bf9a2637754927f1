// Key-column hash joins (paper §3.2): the two hash-join baselines the paper
// builds on the same first step before proving that 2-phase track join
// subsumes them.
//
// Both ship each table's key column, in row order so that record ids stay
// implicit (a rid is a position in the source -> hash node key stream), to
// hash-designated nodes, which join the keys into equal-key groups. They
// differ in how the payloads meet:
//
//  * Rid-based tracking-aware hash join. The hash node migrates the result
//    to where the *wider* tuple already lives: it returns the wider side's
//    rids to their home nodes and tells the narrower side's rows where to
//    go. Narrower-side tuples travel (key + payload) to the wider tuples'
//    nodes and are re-joined there by key. Network cost ≈ (tR+tS)·wk +
//    tRS·(min(wR,wS) + wk + rids); compare RidTrackingHashJoinCost() in
//    costmodel/network_cost.h.
//  * Late-materialized hash join ("In the simple case, keys are hashed,
//    rids are implicitly generated, and payloads are fetched afterwards"):
//    the hash node fetches BOTH payloads per output pair, costing
//    (tR + tS)·wk + tRS·(wR + wS + log tR + log tS). This is the weakness
//    the baseline exists to expose: fetch traffic scales with the OUTPUT
//    cardinality, which is catastrophic for joins like workload Y whose
//    output is 5.4x the input.
//
// Rids are 4 bytes wide ("globally unique rids must be at least 4 bytes",
// used here as local id + the implicit stream id).
#ifndef TJ_CORE_KEY_COLUMN_JOIN_H_
#define TJ_CORE_KEY_COLUMN_JOIN_H_

#include "core/join_types.h"
#include "storage/table.h"

namespace tj {

/// Runs the rid-based tracking-aware hash join.
///
/// Fails with Status::DataLoss / Status::Corruption (never aborts, never a
/// partial result) on unrecoverable faults under an active
/// config.fault_policy — see core/track_join.h.
Result<JoinResult> TryRunRidHashJoin(const PartitionedTable& r,
                                     const PartitionedTable& s,
                                     const JoinConfig& config);

/// Runs the late-materialized hash join. Fails like TryRunRidHashJoin.
Result<JoinResult> TryRunLateMaterializedHashJoin(const PartitionedTable& r,
                                                  const PartitionedTable& s,
                                                  const JoinConfig& config);

}  // namespace tj

#endif  // TJ_CORE_KEY_COLUMN_JOIN_H_
