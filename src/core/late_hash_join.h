// Plain late-materialized hash join (paper §3.2, first variant).
//
// "In the simple case, keys are hashed, rids are implicitly generated, and
// payloads are fetched afterwards. The cost is:
//    (tR + tS)·wk + tRS·(wR + wS + log tR + log tS)"
//
// Key columns ship to hash nodes in row order (rids stay implicit); the
// hash node joins keys into rid pairs and then fetches BOTH payloads per
// output pair — the deliberate weakness this baseline exists to expose:
// fetch traffic scales with the OUTPUT cardinality, which is catastrophic
// for joins like workload Y whose output is 5.4x the input.
#ifndef TJ_CORE_LATE_HASH_JOIN_H_
#define TJ_CORE_LATE_HASH_JOIN_H_

#include "core/join_types.h"
#include "storage/table.h"

namespace tj {

/// Runs the late-materialized hash join. `rid_bytes` is the width of rid
/// fetch requests (default 4).
///
/// Fails with Status::DataLoss / Status::Corruption (never aborts, never a
/// partial result) on unrecoverable faults under an active
/// config.fault_policy — see core/track_join.h.
Result<JoinResult> TryRunLateMaterializedHashJoin(const PartitionedTable& r,
                                                  const PartitionedTable& s,
                                                  const JoinConfig& config,
                                                  uint32_t rid_bytes = 4);

}  // namespace tj

#endif  // TJ_CORE_LATE_HASH_JOIN_H_
