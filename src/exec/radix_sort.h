// MSB radix sort of tuple blocks by join key.
//
// The paper's implementation uses sort-merge-join with MSB radix sort for
// all local joins (Section 4.2, Tables 3/4). Sorting also enables key
// aggregation (distinct key + count) and the delta/prefix compression of
// Section 2.4.
//
// The sort is a multi-pass MSB radix sort with TLB-friendly 8-bit digits:
// each pass is a stable two-pass histogram scatter (counting sort) between
// a primary and a scratch buffer, recursing into the 256 buckets on the
// next byte; small buckets finish with (stable) insertion sort. Given a
// ThreadPool, large ranges histogram and scatter chunk-parallel, and the
// bucket recursion fans out across the pool with a skew guard: a
// heavy-hitter bucket (e.g. a single dominant key prefix) re-enters the
// parallel pass instead of serializing on one thread. Every path is
// stable, so the sorted output — including the payload order of duplicate
// keys — is bit-identical for every thread count, including no pool.
#ifndef TJ_EXEC_RADIX_SORT_H_
#define TJ_EXEC_RADIX_SORT_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "storage/tuple_block.h"

namespace tj {

/// Sorts `keys` ascending with MSB (most-significant-byte first) radix sort,
/// applying identical moves to the parallel `values` array. Stable: equal
/// keys keep their input order. With a pool, large inputs sort in parallel
/// (same output).
/// Precondition: keys.size() == values.size().
void RadixSortPairs(std::vector<uint64_t>* keys, std::vector<uint32_t>* values,
                    ThreadPool* pool = nullptr);

/// Keys-only variant: same MSB radix sort without a value array (half the
/// scatter bandwidth). Used by key aggregation, where only the sorted key
/// multiset matters.
void RadixSortKeys(std::vector<uint64_t>* keys, ThreadPool* pool = nullptr);

/// A stable key sort of a block's rows, computed from its keys alone:
/// keys[i] is the i-th smallest key and rows[i] the row it came from
/// (equal keys in row order).
struct KeyOrder {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> rows;
};
/// Reads `block` only. Precondition: fewer than 2^32 rows.
KeyOrder SortKeyOrder(const TupleBlock& block, ThreadPool* pool = nullptr);

/// A key-sorted copy of a block that stays untouched: SortKeyOrder, then
/// one gather of the rows. Identical to copying the block and
/// SortBlockByKey, tie order included, without holding the copy.
TupleBlock SortedCopyByKey(const TupleBlock& block, ThreadPool* pool = nullptr);

/// Sorts the block's rows by key ascending (payloads move with their keys).
/// Stable; with a pool the sort and payload gather run in parallel.
void SortBlockByKey(TupleBlock* block, ThreadPool* pool = nullptr);

/// True if the block's keys are non-decreasing.
bool IsSortedByKey(const TupleBlock& block);

}  // namespace tj

#endif  // TJ_EXEC_RADIX_SORT_H_
