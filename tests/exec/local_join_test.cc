#include "exec/local_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/radix_sort.h"

namespace tj {
namespace {

TupleBlock MakeBlock(std::vector<uint64_t> keys, uint32_t width,
                     uint8_t fill) {
  TupleBlock block(width);
  std::vector<uint8_t> payload(width);
  for (uint64_t k : keys) {
    for (uint32_t i = 0; i < width; ++i) {
      payload[i] = static_cast<uint8_t>(fill + k + i);
    }
    block.Append(k, payload.data());
  }
  return block;
}

uint64_t BruteForceCount(const std::vector<uint64_t>& r,
                         const std::vector<uint64_t>& s) {
  uint64_t count = 0;
  for (uint64_t a : r) {
    for (uint64_t b : s) count += a == b;
  }
  return count;
}

TEST(LocalJoinTest, SimpleMatch) {
  TupleBlock r = MakeBlock({1, 2, 3}, 2, 0);
  TupleBlock s = MakeBlock({2, 3, 4}, 2, 100);
  uint64_t outputs = 0;
  uint64_t count = SortMergeJoin(&r, &s, [&](uint64_t key, const uint8_t* pr,
                                             const uint8_t* ps) {
    EXPECT_TRUE(key == 2 || key == 3);
    EXPECT_EQ(pr[0], static_cast<uint8_t>(key));
    EXPECT_EQ(ps[0], static_cast<uint8_t>(100 + key));
    ++outputs;
  });
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(outputs, 2u);
}

TEST(LocalJoinTest, CartesianProductOfDuplicates) {
  TupleBlock r = MakeBlock({5, 5, 5}, 0, 0);
  TupleBlock s = MakeBlock({5, 5}, 0, 0);
  EXPECT_EQ(SortMergeJoin(&r, &s, nullptr), 6u);
}

TEST(LocalJoinTest, NoMatches) {
  TupleBlock r = MakeBlock({1, 3, 5}, 0, 0);
  TupleBlock s = MakeBlock({2, 4, 6}, 0, 0);
  EXPECT_EQ(SortMergeJoin(&r, &s, nullptr), 0u);
}

TEST(LocalJoinTest, EmptyInputs) {
  TupleBlock r(4), s(4);
  EXPECT_EQ(SortMergeJoin(&r, &s, nullptr), 0u);
  EXPECT_EQ(HashTableJoin(r, s, nullptr), 0u);
  TupleBlock one = MakeBlock({1}, 4, 0);
  EXPECT_EQ(SortMergeJoin(&one, &s, nullptr), 0u);
  EXPECT_EQ(HashTableJoin(one, s, nullptr), 0u);
}

TEST(LocalJoinTest, MergeAndHashAgreeOnRandomInputs) {
  Rng rng(13);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<uint64_t> r_keys, s_keys;
    size_t nr = rng.Below(400), ns = rng.Below(400);
    uint64_t domain = 1 + rng.Below(200);
    for (size_t i = 0; i < nr; ++i) r_keys.push_back(rng.Below(domain));
    for (size_t i = 0; i < ns; ++i) s_keys.push_back(rng.Below(domain));
    TupleBlock r = MakeBlock(r_keys, 3, 0);
    TupleBlock s = MakeBlock(s_keys, 5, 50);

    JoinChecksum merge_sum, hash_sum;
    TupleBlock r_copy = r, s_copy = s;
    uint64_t merge_count =
        SortMergeJoin(&r_copy, &s_copy, ChecksumSink(&merge_sum, 3, 5));
    uint64_t hash_count = HashTableJoin(r, s, ChecksumSink(&hash_sum, 3, 5));

    EXPECT_EQ(merge_count, BruteForceCount(r_keys, s_keys));
    EXPECT_EQ(hash_count, merge_count);
    EXPECT_EQ(merge_sum.digest(), hash_sum.digest());
  }
}

TEST(LocalJoinTest, MergeJoinSortedRequiresSortedInputs) {
  TupleBlock r = MakeBlock({1, 2, 3}, 0, 0);
  TupleBlock s = MakeBlock({1, 2, 3}, 0, 0);
  EXPECT_EQ(MergeJoinSorted(r, s, nullptr), 3u);
}

TEST(LocalJoinTest, SortMergeSortsUnsortedInputs) {
  TupleBlock r = MakeBlock({3, 1, 2}, 0, 0);
  TupleBlock s = MakeBlock({2, 3, 1}, 0, 0);
  EXPECT_EQ(SortMergeJoin(&r, &s, nullptr), 3u);
  EXPECT_TRUE(IsSortedByKey(r));
  EXPECT_TRUE(IsSortedByKey(s));
}

TEST(LocalJoinTest, ChecksumSinkAccumulates) {
  TupleBlock r = MakeBlock({1, 2}, 2, 0);
  TupleBlock s = MakeBlock({1, 2}, 2, 9);
  JoinChecksum sum;
  SortMergeJoin(&r, &s, ChecksumSink(&sum, 2, 2));
  EXPECT_EQ(sum.count(), 2u);
  EXPECT_NE(sum.digest(), 0u);
}

/// Rows with random payloads, so rows that share a key differ.
TupleBlock RandomRows(const std::vector<uint64_t>& keys, uint32_t width,
                      Rng* rng) {
  TupleBlock block(width);
  std::vector<uint8_t> payload(width);
  for (uint64_t k : keys) {
    for (uint8_t& byte : payload) byte = static_cast<uint8_t>(rng->Next());
    block.Append(k, payload.data());
  }
  return block;
}

/// A per-pair sink that checksums with JoinChecksum::Accumulate, the
/// digest's definition, and materializes each pair as it arrives.
JoinSink PerPairSink(TupleBlock* out, JoinChecksum* checksum, uint32_t wr,
                     uint32_t ws) {
  return [out, checksum, wr, ws](uint64_t key, const uint8_t* pr,
                                 const uint8_t* ps) {
    checksum->Accumulate(key, pr, wr, ps, ws);
    std::vector<uint8_t> row(wr + ws);
    if (wr > 0) std::memcpy(row.data(), pr, wr);
    if (ws > 0) std::memcpy(row.data() + wr, ps, ws);
    out->Append(key, row.data());
  };
}

bool SameRows(const TupleBlock& a, const TupleBlock& b) {
  if (a.size() != b.size() || a.payload_width() != b.payload_width()) {
    return false;
  }
  for (uint64_t row = 0; row < a.size(); ++row) {
    if (a.Key(row) != b.Key(row) ||
        (a.payload_width() > 0 &&
         std::memcmp(a.Payload(row), b.Payload(row), a.payload_width()) !=
             0)) {
      return false;
    }
  }
  return true;
}

TEST(LocalJoinTest, GroupSinksMatchPerPairAccumulate) {
  // Key groups of every shape: 1x1, 1xm, mx1, mxn (workload Y's 12x29),
  // groups of hundreds of rows on either or both sides, and keys on one
  // side only.
  const std::vector<std::pair<uint64_t, uint64_t>> shapes = {
      {1, 1},   {1, 5},     {6, 1}, {12, 29}, {3, 300},
      {300, 2}, {260, 270}, {4, 0}, {0, 3}};
  std::vector<uint64_t> r_keys, s_keys;
  for (uint64_t key = 0; key < shapes.size(); ++key) {
    r_keys.insert(r_keys.end(), shapes[key].first, key * 7 + 3);
    s_keys.insert(s_keys.end(), shapes[key].second, key * 7 + 3);
  }
  Rng rng(29);
  for (auto [wr, ws] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 0}, {1, 1}, {7, 7}, {33, 43}, {0, 7}, {7, 0}}) {
    SCOPED_TRACE(testing::Message() << "widths " << wr << "/" << ws);
    TupleBlock r = RandomRows(r_keys, wr, &rng);
    TupleBlock s = RandomRows(s_keys, ws, &rng);
    // Shuffled copies for the hash join, which needs no sort order.
    auto shuffled = [](TupleBlock block) {
      std::vector<uint32_t> perm(block.size());
      std::iota(perm.begin(), perm.end(), 0u);
      std::shuffle(perm.begin(), perm.end(), std::mt19937(block.size()));
      return block.Gather(perm);
    };
    const TupleBlock r_shuffled = shuffled(r), s_shuffled = shuffled(s);

    using Join = uint64_t (*)(const TupleBlock&, const TupleBlock&,
                              const JoinSink&);
    for (auto [name, join, jr, js] :
         std::vector<std::tuple<const char*, Join, const TupleBlock*,
                                const TupleBlock*>>{
             {"merge", &MergeJoinSorted, &r, &s},
             {"hash", &HashTableJoin, &r_shuffled, &s_shuffled}}) {
      SCOPED_TRACE(name);
      JoinChecksum per_pair;
      TupleBlock per_pair_rows(wr + ws);
      const uint64_t rows =
          join(*jr, *js, PerPairSink(&per_pair_rows, &per_pair, wr, ws));
      EXPECT_EQ(rows, BruteForceCount(r_keys, s_keys));
      EXPECT_EQ(per_pair.count(), rows);

      JoinChecksum grouped;
      EXPECT_EQ(join(*jr, *js, ChecksumSink(&grouped, wr, ws)), rows);
      EXPECT_TRUE(grouped == per_pair);

      JoinChecksum materialized;
      TupleBlock materialized_rows(wr + ws);
      EXPECT_EQ(join(*jr, *js,
                     MaterializeSink(&materialized_rows, &materialized, wr,
                                     ws)),
                rows);
      EXPECT_TRUE(materialized == per_pair);
      EXPECT_TRUE(SameRows(materialized_rows, per_pair_rows));

      EXPECT_EQ(join(*jr, *js, nullptr), rows);
    }
  }
}

}  // namespace
}  // namespace tj
