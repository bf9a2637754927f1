#include "common/flat_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace tj {
namespace {

TEST(FlatMapTest, InsertFind) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  map[5] = 50;
  map[7] = 70;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(*map.Find(5), 50);
  EXPECT_EQ(map.Find(6), nullptr);
  EXPECT_TRUE(map.Contains(7));
  EXPECT_FALSE(map.Contains(6));
  map[5] = 55;  // Overwrite in place.
  EXPECT_EQ(*map.Find(5), 55);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMapTest, OperatorBracketDefaultConstructs) {
  FlatMap<std::vector<uint32_t>> map;
  EXPECT_TRUE(map[42].empty());
  map[42].push_back(1);
  map[42].push_back(2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map[42].size(), 2u);
}

TEST(FlatMapTest, GrowthKeepsAllEntries) {
  FlatMap<uint64_t> map;
  for (uint64_t k = 0; k < 10000; ++k) map[k * 31] = k;
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(map.Find(k * 31), nullptr) << k;
    EXPECT_EQ(*map.Find(k * 31), k);
  }
}

TEST(FlatMapTest, ReservePreventsMidInsertRehash) {
  FlatMap<int> map;
  map.Reserve(1000);
  size_t cap = map.capacity();
  for (uint64_t k = 0; k < 1000; ++k) map[k] = 1;
  EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMapTest, GrowthPointsArePinned) {
  // The table grows when one more entry would pass 7/8 load, doubling from
  // 16 slots. Slot order (ForEach) follows from these points, so they must
  // not drift.
  FlatMap<int> map;
  EXPECT_EQ(map.capacity(), 0u);
  std::vector<std::pair<uint64_t, size_t>> growth;
  size_t cap = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    map[k] = 1;
    if (map.capacity() != cap) {
      cap = map.capacity();
      growth.emplace_back(map.size(), cap);
    }
  }
  const std::vector<std::pair<uint64_t, size_t>> expected = {
      {1, 16}, {15, 32}, {29, 64}, {57, 128}, {113, 256}, {225, 512},
      {449, 1024}, {897, 2048}};
  EXPECT_EQ(growth, expected);
}

TEST(FlatMapTest, ForEachVisitsEveryEntryOnce) {
  FlatMap<uint64_t> map;
  for (uint64_t k = 0; k < 500; ++k) map[k ^ 0xdeadbeef] = k;
  std::unordered_map<uint64_t, uint64_t> seen;
  map.ForEach([&](uint64_t key, const uint64_t& value) { seen[key] = value; });
  EXPECT_EQ(seen.size(), 500u);
  for (uint64_t k = 0; k < 500; ++k) EXPECT_EQ(seen[k ^ 0xdeadbeef], k);
}

TEST(FlatMapTest, DifferentialFuzzAgainstUnorderedMap) {
  Rng rng(99);
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  // Small key universe forces frequent hits and overwrites; 20k ops cross
  // several growth boundaries.
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = rng.Below(4096);
    switch (rng.Below(2)) {
      case 0: {  // Insert / overwrite.
        uint64_t value = rng.Next();
        map[key] = value;
        ref[key] = value;
        break;
      }
      default: {  // Lookup.
        auto it = ref.find(key);
        const uint64_t* found = map.Find(key);
        if (it == ref.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full final sweep both ways.
  std::unordered_map<uint64_t, uint64_t> dumped;
  map.ForEach([&](uint64_t k, const uint64_t& v) {
    EXPECT_TRUE(dumped.emplace(k, v).second);  // No duplicate visits.
  });
  EXPECT_EQ(dumped.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(dumped.count(k)) << k;
    EXPECT_EQ(dumped[k], v);
  }
}

TEST(FlatSetTest, InsertReportsNovelty) {
  FlatSet set;
  EXPECT_TRUE(set.Insert(10));
  EXPECT_FALSE(set.Insert(10));
  EXPECT_TRUE(set.Insert(11));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(10));
  EXPECT_FALSE(set.Contains(12));
}

TEST(FlatSetTest, DifferentialFuzzAgainstUnorderedSet) {
  Rng rng(7);
  FlatSet set;
  std::unordered_set<uint64_t> ref;
  for (int op = 0; op < 10000; ++op) {
    uint64_t key = rng.Below(2048);
    if (rng.Below(3) == 0) {
      EXPECT_EQ(set.Contains(key), ref.count(key) > 0);
    } else {
      EXPECT_EQ(set.Insert(key), ref.insert(key).second);
    }
    ASSERT_EQ(set.size(), ref.size());
  }
  std::vector<uint64_t> keys;
  set.ForEach([&](uint64_t k) { keys.push_back(k); });
  std::sort(keys.begin(), keys.end());
  std::vector<uint64_t> expected(ref.begin(), ref.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);
}

}  // namespace
}  // namespace tj
