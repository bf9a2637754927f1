#include "exec/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace tj {
namespace {

TEST(RadixSortTest, SortsPairsLikeStdSort) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = rng.Below(3000);
    std::vector<uint64_t> keys(n);
    std::vector<uint32_t> values(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = rng.Next() >> rng.Below(56);  // Mixed magnitudes.
      values[i] = static_cast<uint32_t>(i);
    }
    std::vector<std::pair<uint64_t, uint32_t>> expect;
    for (size_t i = 0; i < n; ++i) expect.emplace_back(keys[i], values[i]);
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    RadixSortPairs(&keys, &values);
    ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    // The scatter-based passes are stable, so the exact sequence must match
    // a stable std::sort — including the value order of duplicate keys.
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(keys[i], expect[i].first);
      ASSERT_EQ(values[i], expect[i].second);
    }
  }
}

TEST(RadixSortTest, PayloadsFollowKeys) {
  TupleBlock block(4);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.Below(1000);
    uint8_t payload[4];
    for (int b = 0; b < 4; ++b) payload[b] = static_cast<uint8_t>(key >> (b * 8));
    block.Append(key, payload);
  }
  SortBlockByKey(&block);
  ASSERT_TRUE(IsSortedByKey(block));
  for (uint64_t row = 0; row < block.size(); ++row) {
    uint64_t key = block.Key(row);
    const uint8_t* p = block.Payload(row);
    for (int b = 0; b < 4; ++b) {
      ASSERT_EQ(p[b], static_cast<uint8_t>(key >> (b * 8)));
    }
  }
}

TEST(RadixSortTest, EmptyAndSingle) {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> values;
  RadixSortPairs(&keys, &values);
  EXPECT_TRUE(keys.empty());

  keys = {42};
  values = {0};
  RadixSortPairs(&keys, &values);
  EXPECT_EQ(keys[0], 42u);
}

TEST(RadixSortTest, AllEqualKeys) {
  std::vector<uint64_t> keys(1000, 7);
  std::vector<uint32_t> values(1000);
  for (uint32_t i = 0; i < 1000; ++i) values[i] = i;
  RadixSortPairs(&keys, &values);
  std::sort(values.begin(), values.end());
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(keys[i], 7u);
    EXPECT_EQ(values[i], i);
  }
}

TEST(RadixSortTest, AlreadySortedAndReversed) {
  std::vector<uint64_t> keys(2000);
  std::vector<uint32_t> values(2000, 0);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  RadixSortPairs(&keys, &values);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  for (size_t i = 0; i < keys.size(); ++i) keys[i] = keys.size() - i;
  RadixSortPairs(&keys, &values);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(RadixSortTest, FullWidthKeys) {
  Rng rng(11);
  std::vector<uint64_t> keys(3000);
  std::vector<uint32_t> values(3000, 0);
  for (auto& k : keys) k = rng.Next();  // Uses all 8 bytes.
  RadixSortPairs(&keys, &values);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

// Parallel sort must produce bit-identical output to the sequential sort
// for every thread count: both are stable, so duplicate keys keep their
// input value order too.
TEST(RadixSortTest, ParallelMatchesSequentialExactly) {
  Rng rng(23);
  const size_t n = 300000;  // Above the parallel threshold.
  std::vector<uint64_t> base_keys(n);
  std::vector<uint32_t> base_values(n);
  for (size_t i = 0; i < n; ++i) {
    // Heavy duplication (few distinct keys) exercises stability.
    base_keys[i] = rng.Below(5000) << rng.Below(3);
    base_values[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint64_t> seq_keys = base_keys;
  std::vector<uint32_t> seq_values = base_values;
  RadixSortPairs(&seq_keys, &seq_values);
  for (size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<uint64_t> keys = base_keys;
    std::vector<uint32_t> values = base_values;
    RadixSortPairs(&keys, &values, &pool);
    ASSERT_EQ(keys, seq_keys) << threads << " threads";
    ASSERT_EQ(values, seq_values) << threads << " threads";
  }
}

// Skew guard: one dominant key (half the input) plus noise. The heavy
// bucket must re-enter the parallel pass without corrupting the layout.
TEST(RadixSortTest, ParallelSingleDominantKey) {
  Rng rng(29);
  const size_t n = 200000;
  std::vector<uint64_t> base_keys(n);
  std::vector<uint32_t> base_values(n);
  for (size_t i = 0; i < n; ++i) {
    base_keys[i] = (i % 2 == 0) ? 0xdeadbeefULL : rng.Next();
    base_values[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint64_t> seq_keys = base_keys;
  std::vector<uint32_t> seq_values = base_values;
  RadixSortPairs(&seq_keys, &seq_values);
  ThreadPool pool(8);
  RadixSortPairs(&base_keys, &base_values, &pool);
  EXPECT_EQ(base_keys, seq_keys);
  EXPECT_EQ(base_values, seq_values);
}

// All-equal keys at parallel scale: every histogram is degenerate, so the
// sort must fall through its single-bucket fast path on each byte.
TEST(RadixSortTest, ParallelAllEqualKeys) {
  const size_t n = 150000;
  std::vector<uint64_t> keys(n, 0x0123456789abcdefULL);
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<uint32_t>(i);
  ThreadPool pool(4);
  RadixSortPairs(&keys, &values, &pool);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], 0x0123456789abcdefULL);
    ASSERT_EQ(values[i], i);  // Stability keeps the input order.
  }
}

TEST(RadixSortTest, SortBlockParallelMatchesSequential) {
  Rng rng(31);
  TupleBlock base(8);
  uint8_t payload[8];
  for (size_t i = 0; i < 120000; ++i) {
    uint64_t key = rng.Below(4000);
    std::memcpy(payload, &i, 8);
    base.Append(key, payload);
  }
  TupleBlock seq = base;
  SortBlockByKey(&seq);
  ThreadPool pool(8);
  TupleBlock par = base;
  SortBlockByKey(&par, &pool);
  ASSERT_EQ(par.keys(), seq.keys());
  ASSERT_EQ(
      std::memcmp(par.Payload(0), seq.Payload(0), par.size() * 8), 0);
}

TEST(RadixSortTest, SortedCopyEqualsCopyThenSort) {
  // Sorting straight from a const block gives what copying it and sorting
  // the copy gives, and what a stable comparison sort of the rows gives:
  // equal keys keep their row order. The input stays untouched.
  Rng rng(41);
  ThreadPool pool(4);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5000},
                   size_t{90000}}) {
    TupleBlock block(4);
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t payload[4];
      std::memcpy(payload, &i, 4);
      block.Append(rng.Below(n / 16 + 2) << rng.Below(48), payload);
    }
    const TupleBlock input = block;
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return block.Key(a) < block.Key(b);
    });
    TupleBlock copied = block;
    SortBlockByKey(&copied);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const TupleBlock sorted = SortedCopyByKey(block, p);
      ASSERT_EQ(sorted.size(), n);
      ASSERT_EQ(sorted.keys(), copied.keys());
      for (uint64_t row = 0; row < n; ++row) {
        uint32_t source;
        std::memcpy(&source, sorted.Payload(row), 4);
        ASSERT_EQ(source, order[row]) << "row " << row;
      }
      if (n > 0) {
        ASSERT_EQ(std::memcmp(sorted.Payload(0), copied.Payload(0), n * 4),
                  0);
      }
    }
    ASSERT_EQ(block.keys(), input.keys());
  }
}

TEST(RadixSortTest, IsSortedDetector) {
  TupleBlock sorted(0), unsorted(0);
  for (uint64_t k : {1, 2, 3}) sorted.Append(k, nullptr);
  for (uint64_t k : {3, 1, 2}) unsorted.Append(k, nullptr);
  EXPECT_TRUE(IsSortedByKey(sorted));
  EXPECT_FALSE(IsSortedByKey(unsorted));
  TupleBlock empty(0);
  EXPECT_TRUE(IsSortedByKey(empty));
}

}  // namespace
}  // namespace tj
