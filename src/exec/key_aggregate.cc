#include "exec/key_aggregate.h"

#include "common/logging.h"
#include "exec/radix_sort.h"

namespace tj {

std::vector<KeyCount> AggregateSortedKeys(const TupleBlock& block) {
  std::vector<KeyCount> out;
  AggregateSortedKeys(block.keys(), &out);
  return out;
}

void AggregateSortedKeys(std::span<const uint64_t> keys,
                         std::vector<KeyCount>* out) {
  uint64_t i = 0;
  while (i < keys.size()) {
    uint64_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    TJ_CHECK(j == keys.size() || keys[j] > keys[i]);  // Sorted input required.
    out->push_back(KeyCount{keys[i], j - i});
    i = j;
  }
}

std::vector<KeyCount> AggregateKeys(const TupleBlock& block) {
  std::vector<uint64_t> keys = block.keys();
  RadixSortKeys(&keys);
  std::vector<KeyCount> out;
  AggregateSortedKeys(keys, &out);
  return out;
}

}  // namespace tj
