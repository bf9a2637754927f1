#include "exec/key_aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "exec/radix_sort.h"

namespace tj {
namespace {

TupleBlock KeysOnly(std::vector<uint64_t> keys) {
  TupleBlock block(0);
  for (uint64_t k : keys) block.Append(k, nullptr);
  return block;
}

TEST(KeyAggregateTest, SortedRuns) {
  TupleBlock block = KeysOnly({1, 1, 1, 3, 7, 7});
  auto agg = AggregateSortedKeys(block);
  ASSERT_EQ(agg.size(), 3u);
  EXPECT_EQ(agg[0], (KeyCount{1, 3}));
  EXPECT_EQ(agg[1], (KeyCount{3, 1}));
  EXPECT_EQ(agg[2], (KeyCount{7, 2}));
}

TEST(KeyAggregateTest, SpanFormAppends) {
  const std::vector<uint64_t> keys = {2, 2, 5};
  std::vector<KeyCount> out = {KeyCount{9, 1}};
  AggregateSortedKeys(keys, &out);
  EXPECT_EQ(out, (std::vector<KeyCount>{{9, 1}, {2, 2}, {5, 1}}));
}

TEST(KeyAggregateTest, Empty) {
  TupleBlock block(0);
  EXPECT_TRUE(AggregateSortedKeys(block).empty());
  EXPECT_TRUE(AggregateKeys(block).empty());
}

TEST(KeyAggregateTest, UnsortedInputViaAggregateKeys) {
  TupleBlock block = KeysOnly({5, 1, 5, 1, 5});
  auto agg = AggregateKeys(block);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[0], (KeyCount{1, 2}));
  EXPECT_EQ(agg[1], (KeyCount{5, 3}));
}

TEST(KeyAggregateTest, CountsSumToRows) {
  Rng rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Below(300));
  TupleBlock block = KeysOnly(keys);
  SortBlockByKey(&block);
  auto agg = AggregateSortedKeys(block);
  uint64_t total = 0;
  for (const auto& kc : agg) total += kc.count;
  EXPECT_EQ(total, block.size());
  // Distinct keys and sorted order.
  for (size_t i = 1; i < agg.size(); ++i) {
    EXPECT_LT(agg[i - 1].key, agg[i].key);
  }
}

TEST(KeyAggregateTest, ShuffledAndSortedInputsAgree) {
  // AggregateKeys sorts internally (radix), so any permutation of the same
  // key multiset — including already-sorted input — must produce the same
  // (key, count) runs as a std::sort reference.
  Rng rng(17);
  for (uint64_t universe : {uint64_t{50}, uint64_t{1} << 40}) {
    std::vector<uint64_t> keys;
    for (int i = 0; i < 4000; ++i) keys.push_back(rng.Below(universe));

    std::vector<uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::vector<KeyCount> expected;
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      expected.push_back(KeyCount{sorted[i], j - i});
      i = j;
    }

    EXPECT_EQ(AggregateKeys(KeysOnly(keys)), expected);
    EXPECT_EQ(AggregateKeys(KeysOnly(sorted)), expected);
    std::vector<uint64_t> reversed(sorted.rbegin(), sorted.rend());
    EXPECT_EQ(AggregateKeys(KeysOnly(reversed)), expected);
  }
}

TEST(KeyAggregateTest, SingleKey) {
  TupleBlock block = KeysOnly(std::vector<uint64_t>(100, 9));
  auto agg = AggregateSortedKeys(block);
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].count, 100u);
}

}  // namespace
}  // namespace tj
