// Event-driven micro-batch track join (pipelined 2TJ/3TJ/4TJ).
//
// The barrier driver (core/track_join.h) runs the paper's de-pipelined
// phases; this driver runs the same algorithm as a dataflow over the
// pipelined fabric (net/pipelined_fabric.h). Its 2-phase version is the
// paper's streaming pseudocode (Section 2): keys-only tracking, one fixed
// broadcast direction, no migrations.
//
//  * Sources sort + aggregate locally, then emit their tracking streams in
//    key-range micro-batch chunks under credit-based flow control.
//  * Each tracker merges the per-source streams with a watermark frontier:
//    as soon as every source has delivered all keys below F, the range
//    [previous F, F) is merged, scheduled (via the shared KeyPlanner) and
//    its location/migration/hot-split instructions stream out — while
//    later ranges are still in flight.
//  * Holders act on instruction chunks immediately, streaming selective
//    broadcast and migration data behind the scheduler.
//  * Joiners join incrementally on arrival: each data row pairs exactly
//    once with matching home rows and with previously-arrived counterpart
//    rows, so no final join phase (and no global barrier) exists at all.
//
// Equivalence to the barrier driver is structural, not approximate: per
// (src, dst, type), the pipelined chunks are a re-slicing of the exact
// bytes the barrier driver sends in one message, so traffic matrices are
// byte-identical; the schedules come from the same KeyPlanner consuming
// keys in the same order, so EXPLAIN audits are identical; and the output
// checksum is order-independent, so incremental joining changes nothing.
// What changes is time: the modeled end-to-end makespan is the critical
// path through the event schedule instead of a sum of phases.
#ifndef TJ_CORE_PIPELINED_TRACK_JOIN_H_
#define TJ_CORE_PIPELINED_TRACK_JOIN_H_

#include "core/join_types.h"
#include "storage/table.h"

namespace tj {

/// Runs the pipelined track join in any version; `direction` is the fixed
/// broadcast direction of the 2-phase version (and, as in the barrier
/// driver, ignored by the 3- and 4-phase schedulers). Requires the plain
/// wire format (delta_tracking / group_locations off). The result carries
/// makespan_seconds and barrier_makespan_seconds in addition to everything
/// the barrier driver reports. `config.pipeline` supplies the chunk size,
/// inbox budget and CPU bandwidth.
///
/// Fault semantics mirror the barrier driver at chunk granularity: lost
/// links and crashed nodes yield Status::DataLoss (a crashed node's
/// streams never terminate), and a successful run under delivery faults
/// produces the same output checksum as the pristine barrier run.
Result<JoinResult> TryRunPipelinedTrackJoin(
    const PartitionedTable& r, const PartitionedTable& s,
    const JoinConfig& config, TrackJoinVersion version,
    Direction direction = Direction::kRtoS);

}  // namespace tj

#endif  // TJ_CORE_PIPELINED_TRACK_JOIN_H_
