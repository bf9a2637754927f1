#include "exec/partition.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/radix_sort.h"

namespace tj {
namespace {

TupleBlock RandomBlock(Rng* rng, size_t n, uint32_t width) {
  TupleBlock block(width);
  std::vector<uint8_t> payload(width);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = rng->Below(100000);
    for (uint32_t b = 0; b < width; ++b) {
      payload[b] = static_cast<uint8_t>((key + i) >> (b % 8));
    }
    block.Append(key, width ? payload.data() : nullptr);
  }
  return block;
}

TEST(PartitionTest, EveryRowLandsByHash) {
  Rng rng(3);
  TupleBlock block = RandomBlock(&rng, 2000, 4);
  PartitionLayout layout = ValueOrDie(TryRadixPartition(block, 7));
  ASSERT_EQ(layout.num_parts(), 7u);
  uint64_t total = 0;
  for (uint32_t p = 0; p < layout.num_parts(); ++p) {
    total += layout.Size(p);
    for (uint64_t row = layout.Begin(p); row < layout.End(p); ++row) {
      EXPECT_EQ(HashPartition(layout.tuples.Key(row), 7), p);
    }
  }
  EXPECT_EQ(total, block.size());
}

TEST(PartitionTest, IndexesMatchBlocks) {
  Rng rng(5);
  TupleBlock block = RandomBlock(&rng, 1000, 0);
  PartitionLayout parts = ValueOrDie(TryRadixPartition(block, 4));
  KeyPartitionLayout keys = ValueOrDie(TryRadixPartitionKeys(block, 4));
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_EQ(parts.Size(p), keys.Size(p));
    for (uint64_t i = 0; i < keys.Size(p); ++i) {
      EXPECT_EQ(block.Key(keys.row_ids[keys.Begin(p) + i]),
                parts.tuples.Key(parts.Begin(p) + i));
    }
  }
}

TEST(PartitionTest, SinglePartitionKeepsAll) {
  Rng rng(7);
  TupleBlock block = RandomBlock(&rng, 100, 2);
  PartitionLayout layout = ValueOrDie(TryRadixPartition(block, 1));
  ASSERT_EQ(layout.num_parts(), 1u);
  EXPECT_EQ(layout.Size(0), block.size());
}

TEST(PartitionTest, RoughlyBalanced) {
  Rng rng(9);
  TupleBlock block(0);
  for (uint64_t k = 0; k < 64000; ++k) block.Append(k, nullptr);
  KeyPartitionLayout layout = ValueOrDie(TryRadixPartitionKeys(block, 16));
  for (uint32_t p = 0; p < 16; ++p) {
    EXPECT_NEAR(layout.Size(p), 4000, 400);
  }
}

TEST(PartitionTest, EmptyBlock) {
  TupleBlock block(4);
  Result<PartitionLayout> layout = TryRadixPartition(block, 3);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->num_parts(), 3u);
  EXPECT_TRUE(layout->tuples.empty());
  for (uint32_t p = 0; p < 3; ++p) EXPECT_EQ(layout->Size(p), 0u);

  Result<KeyPartitionLayout> keys = TryRadixPartitionKeys(block, 3);
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(keys->keys.empty());
  EXPECT_EQ(keys->bounds.size(), 4u);
}

TEST(PartitionTest, ZeroPartitionCountIsInvalidArgument) {
  TupleBlock block(4);
  uint8_t payload[4] = {0};
  block.Append(1, payload);

  Result<PartitionLayout> layout = TryRadixPartition(block, 0);
  ASSERT_FALSE(layout.ok());
  EXPECT_EQ(layout.status().code(), StatusCode::kInvalidArgument);

  Result<KeyPartitionLayout> keys = TryRadixPartitionKeys(block, 0);
  ASSERT_FALSE(keys.ok());
  EXPECT_EQ(keys.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(TrySortedRadixPartition(block, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// The contiguous runs must hold each partition's rows in input order
// (stability) — serialized streams depend on it being bit-identical to the
// row-index serialization the key layout's row ids drive.
TEST(PartitionTest, LayoutIsStableAndMatchesIndexes) {
  Rng rng(11);
  TupleBlock block = RandomBlock(&rng, 5000, 6);
  for (uint32_t parts : {1u, 4u, 7u, 13u}) {  // Not only powers of two.
    Result<PartitionLayout> layout = TryRadixPartition(block, parts);
    ASSERT_TRUE(layout.ok());
    KeyPartitionLayout keys = ValueOrDie(TryRadixPartitionKeys(block, parts));
    ASSERT_EQ(layout->bounds.back(), block.size());
    for (uint32_t p = 0; p < parts; ++p) {
      ASSERT_EQ(layout->Size(p), keys.Size(p));
      for (uint64_t i = 0; i < keys.Size(p); ++i) {
        uint64_t row = layout->Begin(p) + i;
        uint32_t source = keys.row_ids[keys.Begin(p) + i];
        ASSERT_EQ(layout->tuples.Key(row), block.Key(source));
        ASSERT_EQ(std::memcmp(layout->tuples.Payload(row),
                              block.Payload(source), 6),
                  0);
      }
    }
  }
}

// The pipelined source's tracker-major home block: sorting and grouping
// the (key, row) pairs, then gathering once, must give exactly what sorting
// a copy and radix-partitioning it gives, ties and bounds included.
TEST(PartitionTest, SortedPartitionEqualsSortThenPartition) {
  Rng rng(17);
  ThreadPool pool(4);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{3000}, size_t{70000}}) {
    // Few distinct keys, so most keys tie; the payload names the row.
    TupleBlock block(4);
    for (uint32_t i = 0; i < rows; ++i) {
      uint8_t payload[4];
      std::memcpy(payload, &i, 4);
      block.Append(rng.Below(rows / 8 + 1) << rng.Below(40), payload);
    }
    const TupleBlock input = block;
    for (uint32_t parts : {1u, 3u, 8u}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE("rows=" + std::to_string(rows) +
                     " parts=" + std::to_string(parts));
        PartitionLayout expected = ValueOrDie(
            TryRadixPartition(SortedCopyByKey(block), parts));
        PartitionLayout got =
            ValueOrDie(TrySortedRadixPartition(block, parts, p));
        ASSERT_EQ(got.bounds, expected.bounds);
        ASSERT_EQ(got.tuples.keys(), expected.tuples.keys());
        if (rows > 0) {
          ASSERT_EQ(std::memcmp(got.tuples.Payload(0),
                                expected.tuples.Payload(0), rows * 4),
                    0);
        }
      }
    }
    ASSERT_EQ(block.keys(), input.keys());  // The input stays untouched.
  }
}

TEST(PartitionTest, KeyLayoutRowIdsMapBack) {
  Rng rng(13);
  TupleBlock block = RandomBlock(&rng, 3000, 0);
  Result<KeyPartitionLayout> layout = TryRadixPartitionKeys(block, 5);
  ASSERT_TRUE(layout.ok());
  for (uint32_t p = 0; p < 5; ++p) {
    for (uint64_t i = layout->Begin(p); i < layout->End(p); ++i) {
      EXPECT_EQ(layout->keys[i], block.Key(layout->row_ids[i]));
      EXPECT_EQ(HashPartition(layout->keys[i], 5), p);
    }
    // Row ids ascend inside a partition: stable layout.
    for (uint64_t i = layout->Begin(p) + 1; i < layout->End(p); ++i) {
      EXPECT_LT(layout->row_ids[i - 1], layout->row_ids[i]);
    }
  }
}

// Same input => identical partition layout for every thread count,
// including no pool at all.
TEST(PartitionTest, DeterministicAcrossThreadCounts) {
  Rng rng(17);
  TupleBlock block = RandomBlock(&rng, 120000, 8);
  for (uint32_t parts : {3u, 16u}) {
    Result<PartitionLayout> base = TryRadixPartition(block, parts, nullptr);
    ASSERT_TRUE(base.ok());
    for (size_t threads : {2u, 3u, 8u}) {
      ThreadPool pool(threads);
      Result<PartitionLayout> got = TryRadixPartition(block, parts, &pool);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->bounds, base->bounds);
      ASSERT_EQ(got->tuples.keys(), base->tuples.keys());
      ASSERT_EQ(std::memcmp(got->tuples.Payload(0), base->tuples.Payload(0),
                            block.size() * 8),
                0);

      Result<KeyPartitionLayout> kgot =
          TryRadixPartitionKeys(block, parts, &pool);
      Result<KeyPartitionLayout> kbase =
          TryRadixPartitionKeys(block, parts, nullptr);
      ASSERT_TRUE(kgot.ok());
      ASSERT_EQ(kgot->keys, kbase->keys);
      ASSERT_EQ(kgot->row_ids, kbase->row_ids);
      ASSERT_EQ(kgot->bounds, kbase->bounds);
    }
  }
}

// Maximal skew: a single distinct key routes every row to one partition.
// The chunk-parallel scatter must still fill it correctly.
TEST(PartitionTest, SingleDistinctKeyMaximalSkew) {
  TupleBlock block(4);
  uint8_t payload[4];
  for (uint32_t i = 0; i < 100000; ++i) {
    std::memcpy(payload, &i, 4);
    block.Append(42, payload);
  }
  ThreadPool pool(4);
  Result<PartitionLayout> layout = TryRadixPartition(block, 8, &pool);
  ASSERT_TRUE(layout.ok());
  const uint32_t target = HashPartition(42, 8);
  for (uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(layout->Size(p), p == target ? block.size() : 0u);
  }
  // Stable: payloads stay in append order.
  for (uint32_t i = 0; i < block.size(); ++i) {
    uint32_t got;
    std::memcpy(&got, layout->tuples.Payload(layout->Begin(target) + i), 4);
    ASSERT_EQ(got, i);
  }
}

}  // namespace
}  // namespace tj
