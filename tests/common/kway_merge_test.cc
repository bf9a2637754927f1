#include "common/kway_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace tj {
namespace {

/// Minimal cursor over a borrowed sorted vector.
struct VecCursor {
  const std::vector<uint64_t>* v = nullptr;
  size_t i = 0;

  bool Valid() const { return i < v->size(); }
  void Next() { ++i; }
  uint64_t key() const { return (*v)[i]; }
};

std::vector<uint64_t> Drain(std::vector<VecCursor>* cursors) {
  LoserTree<VecCursor> tree(cursors);
  std::vector<uint64_t> out;
  while (!tree.Done()) {
    EXPECT_EQ(tree.TopKey(), tree.Top().key());
    out.push_back(tree.Top().key());
    tree.Pop();
  }
  return out;
}

std::vector<VecCursor> Cursors(const std::vector<std::vector<uint64_t>>& runs) {
  std::vector<VecCursor> cursors;
  for (const auto& run : runs) cursors.push_back(VecCursor{&run, 0});
  return cursors;
}

TEST(KwayMergeTest, MergesSortedRuns) {
  std::vector<std::vector<uint64_t>> runs = {
      {1, 4, 9}, {2, 3, 10}, {5, 6, 7, 8}};
  auto cursors = Cursors(runs);
  EXPECT_EQ(Drain(&cursors),
            (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(KwayMergeTest, NoCursorsIsDone) {
  std::vector<VecCursor> cursors;
  LoserTree<VecCursor> tree(&cursors);
  EXPECT_TRUE(tree.Done());
}

TEST(KwayMergeTest, SingleSource) {
  std::vector<std::vector<uint64_t>> runs = {{3, 3, 5}};
  auto cursors = Cursors(runs);
  EXPECT_EQ(Drain(&cursors), (std::vector<uint64_t>{3, 3, 5}));
}

TEST(KwayMergeTest, EmptySourcesLoseEveryMatch) {
  std::vector<std::vector<uint64_t>> runs = {{}, {2, 4}, {}, {1}, {}};
  auto cursors = Cursors(runs);
  EXPECT_EQ(Drain(&cursors), (std::vector<uint64_t>{1, 2, 4}));
}

TEST(KwayMergeTest, AllSourcesEmpty) {
  std::vector<std::vector<uint64_t>> runs = {{}, {}, {}};
  auto cursors = Cursors(runs);
  LoserTree<VecCursor> tree(&cursors);
  EXPECT_TRUE(tree.Done());
}

TEST(KwayMergeTest, TiesBreakTowardLowerCursorIndex) {
  std::vector<std::vector<uint64_t>> runs = {{7, 9}, {7, 7}, {7}};
  auto cursors = Cursors(runs);
  LoserTree<VecCursor> tree(&cursors);
  // All heads equal 7: pops must surface cursors 0, 1, 2 in index order,
  // then cursor 1's second 7 before the larger heads.
  std::vector<size_t> order;
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(tree.Done());
    EXPECT_EQ(tree.Top().key(), 7u);
    order.push_back(tree.TopIndex());
    tree.Pop();
  }
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 1, 2}));
  EXPECT_EQ(tree.Top().key(), 9u);
}

TEST(KwayMergeTest, LiveMaxKeyBeatsDrainedCursor) {
  // A drained cursor caches key ~0ULL too; its rank (k + index) must still
  // lose to a live ~0ULL head, even one at a higher index.
  const uint64_t kMax = ~0ULL;
  std::vector<std::vector<uint64_t>> runs = {{1}, {}, {kMax, kMax}, {kMax}};
  auto cursors = Cursors(runs);
  LoserTree<VecCursor> tree(&cursors);
  std::vector<size_t> order;
  while (!tree.Done()) {
    order.push_back(tree.TopIndex());
    tree.Pop();
  }
  // Cursor 0 drains after its first pop, and cursor 1 starts drained.
  EXPECT_EQ(order, (std::vector<size_t>{0, 2, 2, 3}));
  EXPECT_EQ(Drain(&cursors), (std::vector<uint64_t>{}));
  auto fresh = Cursors(runs);
  EXPECT_EQ(Drain(&fresh), (std::vector<uint64_t>{1, kMax, kMax, kMax}));
}

TEST(KwayMergeTest, RandomizedAgainstSort) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    size_t k = 1 + rng.Below(17);
    std::vector<std::vector<uint64_t>> runs(k);
    std::vector<uint64_t> expected;
    for (auto& run : runs) {
      size_t n = rng.Below(40);  // Empty runs included.
      // Small keys force ties; ~0ULL exercises the drained-cursor key.
      for (size_t i = 0; i < n; ++i) {
        run.push_back(rng.Below(8) == 0 ? ~0ULL : rng.Below(64));
      }
      std::sort(run.begin(), run.end());
      expected.insert(expected.end(), run.begin(), run.end());
    }
    std::sort(expected.begin(), expected.end());
    auto cursors = Cursors(runs);
    EXPECT_EQ(Drain(&cursors), expected) << "round " << round;
  }
}

}  // namespace
}  // namespace tj
