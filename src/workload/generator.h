// Synthetic workload generation.
//
// Generates the paper's synthetic datasets (Figures 3-6): configurable key
// multiplicities per table, repeat-placement patterns ("5,0,0,...",
// "2,2,1,0,0,...", "1,1,1,1,1,0,0,..."), and collocation modes — random,
// intra-table (repeats of a key land together, tables independent) and
// inter-table (matching keys of both tables land on the same nodes).
#ifndef TJ_WORKLOAD_GENERATOR_H_
#define TJ_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/replica.h"
#include "storage/table.h"

namespace tj {

/// How repeat groups are assigned to nodes.
enum class Collocation : uint8_t {
  /// Every tuple copy is placed on an independent uniform-random node
  /// (the "shuffled" inputs of the paper).
  kRandom,
  /// The pattern's groups land on distinct random nodes per table; the two
  /// tables are placed independently (Figures 4, 5).
  kIntra,
  /// Like kIntra, but each key's S groups reuse the nodes chosen for its R
  /// groups (Figure 6: inter- & intra-table collocation).
  kInter,
};

struct WorkloadSpec {
  uint32_t num_nodes = 4;
  uint64_t seed = 42;

  /// Number of distinct join keys present in BOTH tables.
  uint64_t matched_keys = 1000;
  /// Copies of each matched key per table (the "5 repeats" of Figs 4-6).
  uint32_t r_multiplicity = 1;
  uint32_t s_multiplicity = 1;
  /// Placement pattern: group sizes summing to the multiplicity,
  /// e.g. {5} / {2,2,1} / {1,1,1,1,1}. Empty means one group of all copies
  /// under kIntra/kInter, or is ignored under kRandom.
  std::vector<uint32_t> r_pattern;
  std::vector<uint32_t> s_pattern;
  Collocation collocation = Collocation::kRandom;
  /// Fraction of matched keys that follow the collocation mode; the rest
  /// are placed per-copy uniformly at random. Models partially-local
  /// "original orderings" like workload X's (see workload/real.h).
  double collocated_fraction = 1.0;

  /// Extra rows whose keys appear in only one table (drive selectivity);
  /// each unmatched key occurs once, on a random node.
  uint64_t r_unmatched = 0;
  uint64_t s_unmatched = 0;

  /// Payload bytes per tuple (excluding the join key).
  uint32_t r_payload = 16;
  uint32_t s_payload = 16;
};

struct Workload {
  PartitionedTable r;
  PartitionedTable s;
  /// matched_keys × r_multiplicity × s_multiplicity.
  uint64_t expected_output_rows;
};

/// Checks GenerateWorkload's preconditions. Returns InvalidArgument naming
/// the offending field when num_nodes, r_multiplicity or s_multiplicity is
/// zero or, under kIntra/kInter collocation, a non-empty pattern does not
/// sum to its table's multiplicity or has more groups than num_nodes
/// (groups land on distinct nodes). kRandom ignores the patterns.
Status ValidateWorkloadSpec(const WorkloadSpec& spec);

/// Generates a workload. Keys are dense 64-bit values starting at 1
/// (matched), with unmatched keys in disjoint ranges above them; callers
/// must pick JoinConfig::key_bytes large enough. `spec` must pass
/// ValidateWorkloadSpec.
Workload GenerateWorkload(const WorkloadSpec& spec);

/// Replicated placement of a workload's tables: chained declustering with
/// `replication` copies per partition (storage/replica.h). The views point
/// into `workload`, which must outlive them.
struct ReplicatedWorkload {
  ReplicatedTable r;
  ReplicatedTable s;
};
ReplicatedWorkload ReplicateWorkload(const Workload& workload,
                                     uint32_t replication);

/// Reassigns every tuple of `table` to an independent uniform-random node —
/// the paper's "shuffled tuple ordering" that destroys all locality.
void ShuffleTable(PartitionedTable* table, uint64_t seed);

/// Skewed workload: both tables draw keys Zipf(theta)-distributed over a
/// shared domain, so a few keys are very hot on both sides. Placement is
/// uniform random per tuple. Used by the skew/balance ablations — hot keys
/// stress both the per-key scheduler and node load balance.
struct ZipfWorkloadSpec {
  uint32_t num_nodes = 8;
  uint64_t seed = 42;
  uint64_t key_domain = 100000;  ///< Distinct keys drawn from [1, domain].
  uint64_t r_rows = 100000;
  uint64_t s_rows = 100000;
  double r_theta = 1.0;
  double s_theta = 1.0;
  uint32_t r_payload = 16;
  uint32_t s_payload = 16;
};

/// Generates a Zipf workload; expected_output_rows is computed exactly
/// from the drawn multiplicities. Both tables share one sampler when their
/// (domain, theta) match, so the distribution setup runs once, and theta=0
/// degenerates to plain uniform sampling (see ZipfGenerator).
///
/// Returns Status::InvalidArgument for an empty cluster (num_nodes == 0)
/// or an empty key domain (key_domain == 0). The exact output count can
/// overflow uint64 under extreme skew (a hot key with ~2^32 copies on each
/// side): any overflowing per-key product or running sum also returns
/// InvalidArgument instead of silently wrapping.
Result<Workload> TryGenerateZipfWorkload(const ZipfWorkloadSpec& spec);

/// Accumulates one key's exact output contribution (r_count x s_count)
/// into *total. InvalidArgument (naming `key` and the counts) when the
/// product or the running sum overflows uint64; *total is untouched then.
Status AddOutputProduct(uint64_t key, uint64_t r_count, uint64_t s_count,
                        uint64_t* total);

}  // namespace tj

#endif  // TJ_WORKLOAD_GENERATOR_H_
