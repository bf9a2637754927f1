// Key aggregation: distinct join keys with local match counts.
//
// Track join's tracking phase sends, per node, each distinct local key
// (2-phase) or each distinct key plus its local count / total width
// (3-/4-phase). Aggregation runs over the sorted local block ("we sort both
// tables and aggregate the keys" — paper Table 4).
#ifndef TJ_EXEC_KEY_AGGREGATE_H_
#define TJ_EXEC_KEY_AGGREGATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/tuple_block.h"

namespace tj {

/// A distinct key and how many local tuples carry it.
struct KeyCount {
  uint64_t key;
  uint64_t count;

  bool operator==(const KeyCount&) const = default;
};

/// Aggregates a block sorted by key. Precondition: IsSortedByKey(block).
std::vector<KeyCount> AggregateSortedKeys(const TupleBlock& block);

/// Appends the aggregate of non-decreasing `keys` to `out`.
void AggregateSortedKeys(std::span<const uint64_t> keys,
                         std::vector<KeyCount>* out);

/// Aggregates an arbitrary block (sorts a key copy internally).
std::vector<KeyCount> AggregateKeys(const TupleBlock& block);

}  // namespace tj

#endif  // TJ_EXEC_KEY_AGGREGATE_H_
