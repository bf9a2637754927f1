// Track join: distributed equi-join with per-key transfer scheduling.
//
// Public entry points for the three versions of the paper's algorithm:
//
//  * 2-phase ("single broadcast"): track key locations, then selectively
//    broadcast one table's tuples (direction fixed by the caller — in a
//    DBMS, by the query optimizer) to nodes with matching tuples.
//  * 3-phase ("double broadcast"): tracking also carries local match
//    counts; the cheaper broadcast direction is chosen per distinct key.
//  * 4-phase (full track join): before the selective broadcast, the target
//    table's tuples may migrate to fewer nodes; the per-key schedule is
//    network-optimal (see core/schedule.h).
//
// All versions run on a simulated cluster (net/fabric.h) in de-pipelined
// phases, produce an order-independent checksum of the join output, and
// account every byte sent in the result's traffic matrix.
#ifndef TJ_CORE_TRACK_JOIN_H_
#define TJ_CORE_TRACK_JOIN_H_

#include "core/join_types.h"
#include "storage/table.h"

namespace tj {

// TrackJoinVersion lives in core/join_types.h (shared with the per-key
// planner and the pipelined driver).

/// Runs track join on tables r and s (same node count). `direction` is only
/// used by the 2-phase version. Inputs are not modified.
///
/// Fails (never aborts) on recoverable distributed-execution errors: an
/// active config.fault_policy whose losses exceed the retry budget or whose
/// crash fault hits a phase yields Status::DataLoss naming the phase;
/// payloads that decode inconsistently yield Status::Corruption. There is no
/// partial result: the query either completes exactly or returns an error.
Result<JoinResult> TryRunTrackJoin(const PartitionedTable& r,
                                   const PartitionedTable& s,
                                   const JoinConfig& config,
                                   TrackJoinVersion version,
                                   Direction direction = Direction::kRtoS);

}  // namespace tj

#endif  // TJ_CORE_TRACK_JOIN_H_
