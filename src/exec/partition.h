// Hash partitioning of tuple blocks across nodes.
//
// The partition step of Grace hash join and of track join's tracking phase:
// destination node = hash(key) mod N (common/hash.h HashPartition).
//
// The workhorse is a two-pass histogram-based radix partitioner
// (paper Section 4.2: the local steps of Tables 3/4 are dominated by
// partitioning and MSB radix sort): pass 1 builds per-chunk histograms of
// partition destinations, an exclusive prefix sum turns them into write
// cursors, and pass 2 scatters tuples through software write-combining
// buffers into contiguous per-partition runs. Both passes parallelize over
// input chunks on a ThreadPool; because the cursor math is chunk-major the
// output layout is *stable* (input order preserved inside each partition)
// and therefore bit-identical for every thread count, including none.
// Heavy-hitter (skewed) partitions cost nothing extra: work is split by
// input chunk, not by partition, so a partition receiving most of the
// input is still written by all threads in parallel.
#ifndef TJ_EXEC_PARTITION_H_
#define TJ_EXEC_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "storage/tuple_block.h"

namespace tj {

/// Contiguous per-partition tuple runs: partition p's tuples occupy rows
/// [bounds[p], bounds[p+1]) of `tuples`, in input order.
struct PartitionLayout {
  TupleBlock tuples;
  std::vector<uint64_t> bounds;  // num_parts + 1 entries

  uint32_t num_parts() const {
    return bounds.empty() ? 0 : static_cast<uint32_t>(bounds.size() - 1);
  }
  uint64_t Begin(uint32_t p) const { return bounds[p]; }
  uint64_t End(uint32_t p) const { return bounds[p + 1]; }
  uint64_t Size(uint32_t p) const { return bounds[p + 1] - bounds[p]; }
};

/// Key-column variant for the rid/late joins, which ship key streams and
/// refer to payloads by position later: partition p's keys occupy
/// [bounds[p], bounds[p+1]) of `keys`, and row_ids[i] is the original row
/// of keys[i].
struct KeyPartitionLayout {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> row_ids;
  std::vector<uint64_t> bounds;  // num_parts + 1 entries

  uint64_t Begin(uint32_t p) const { return bounds[p]; }
  uint64_t End(uint32_t p) const { return bounds[p + 1]; }
  uint64_t Size(uint32_t p) const { return bounds[p + 1] - bounds[p]; }
};

/// Two-pass parallel radix partition of `block` into `num_parts` contiguous
/// runs by hash of key. Stable: identical output for every thread count.
/// Fails with InvalidArgument when num_parts == 0.
Result<PartitionLayout> TryRadixPartition(const TupleBlock& block,
                                          uint32_t num_parts,
                                          ThreadPool* pool = nullptr);

/// The sorted form of TryRadixPartition: partition p's rows are its rows
/// of `block` sorted by key, equal keys in row order, and the output equals
/// SortedCopyByKey followed by TryRadixPartition. The sort and the stable
/// partition run on (key, row) pairs read from `block`, which stays
/// untouched, and the rows are gathered once. Fails with InvalidArgument
/// when num_parts == 0.
Result<PartitionLayout> TrySortedRadixPartition(const TupleBlock& block,
                                                uint32_t num_parts,
                                                ThreadPool* pool = nullptr);

/// Key-column variant: partitions only keys + original row ids (no payload
/// movement). Fails with InvalidArgument when num_parts == 0 and with
/// OutOfRange when the block has >= 2^32 rows (row ids are 32-bit).
Result<KeyPartitionLayout> TryRadixPartitionKeys(const TupleBlock& block,
                                                 uint32_t num_parts,
                                                 ThreadPool* pool = nullptr);

}  // namespace tj

#endif  // TJ_EXEC_PARTITION_H_
