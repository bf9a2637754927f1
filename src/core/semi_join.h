// Two-way semi-join (Bloom) filtering in front of distributed joins — §3.3.
//
// Each node builds a Bloom filter over its local join keys per table; the
// filters are broadcast, and every node prunes local tuples whose keys no
// received filter admits before the join algorithm runs. False positives
// survive pruning (and are eliminated by the join itself); matched tuples
// are never dropped.
//
// Track join performs *perfect* semi-join filtering on its own during
// tracking; Bloom filtering in front of it only thins the tracking phase,
// whereas hash join saves full tuple transfers — the trade-off the
// ablation bench (bench/ablation_semijoin) quantifies.
#ifndef TJ_CORE_SEMI_JOIN_H_
#define TJ_CORE_SEMI_JOIN_H_

#include "core/join_types.h"
#include "core/track_join.h"
#include "storage/table.h"

namespace tj {

struct SemiJoinConfig {
  /// Filter density wbf in bits per qualifying tuple.
  uint32_t bloom_bits_per_key = 10;
};

/// The filter-exchange prologue: returns pruned copies of both tables plus
/// the filter broadcast traffic and steps, which the wrappers below fold
/// into their results. Exposed for testing.
struct FilteredInputs {
  PartitionedTable r;
  PartitionedTable s;
  TrafficMatrix filter_traffic;
  /// Step records of the filter exchange, spliced in front of the inner
  /// join's profile by the wrappers.
  StepProfile profile;
  uint64_t r_rows_pruned = 0;
  uint64_t s_rows_pruned = 0;
};
Result<FilteredInputs> ExchangeFiltersAndPrune(const PartitionedTable& r,
                                               const PartitionedTable& s,
                                               const SemiJoinConfig& semi);

/// Grace hash join behind two-way Bloom filtering. The filter broadcast
/// runs on a pristine fabric (each node prunes with the filters decoded
/// from its inbox plus its own; a malformed inbox returns
/// Status::Corruption), so only the inner join is subject to an active
/// config.fault_policy — see core/track_join.h for the error contract.
Result<JoinResult> TryRunFilteredHashJoin(const PartitionedTable& r,
                                          const PartitionedTable& s,
                                          const JoinConfig& config,
                                          const SemiJoinConfig& semi);

/// Track join behind two-way Bloom filtering (any version).
Result<JoinResult> TryRunFilteredTrackJoin(const PartitionedTable& r,
                                           const PartitionedTable& s,
                                           const JoinConfig& config,
                                           const SemiJoinConfig& semi,
                                           TrackJoinVersion version,
                                           Direction direction =
                                               Direction::kRtoS);

}  // namespace tj

#endif  // TJ_CORE_SEMI_JOIN_H_
