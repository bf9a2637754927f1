#include "costmodel/network_cost.h"

#include <gtest/gtest.h>

namespace tj {
namespace {

JoinStats UniqueKeyStats() {
  JoinStats stats;
  stats.num_nodes = 16;
  stats.t_r = 1e9;
  stats.t_s = 1e9;
  stats.d_r = 1e9;
  stats.d_s = 1e9;
  stats.w_k = 4;
  stats.w_r = 16;
  stats.w_s = 56;
  stats.t_rs = 1e9;
  return stats;
}

TEST(NetworkCostTest, HashJoinFormula) {
  JoinStats stats = UniqueKeyStats();
  // tR(wk+wR) + tS(wk+wS) = 1e9*20 + 1e9*60 = 8e10.
  EXPECT_DOUBLE_EQ(HashJoinCost(stats), 8e10);
  EXPECT_DOUBLE_EQ(HashJoinCost(stats, true), 8e10 * 15 / 16);
}

TEST(NetworkCostTest, BroadcastFormula) {
  JoinStats stats = UniqueKeyStats();
  EXPECT_DOUBLE_EQ(BroadcastJoinCost(stats, true), 15 * 1e9 * 20);
  EXPECT_DOUBLE_EQ(BroadcastJoinCost(stats, false), 15 * 1e9 * 60);
}

TEST(NetworkCostTest, NodesPerKeyClampedByN) {
  JoinStats stats = UniqueKeyStats();
  EXPECT_DOUBLE_EQ(stats.NodesPerKeyR(), 1.0);  // Unique keys: 1 node.
  stats.d_r = 1e9 / 100;                        // 100 repeats per key.
  EXPECT_DOUBLE_EQ(stats.NodesPerKeyR(), 16.0);  // Clamped to N.
}

TEST(NetworkCostTest, TrackJoin2BeatsHashJoinOnWidePayloads) {
  // Unique keys, wS = 56 >= 2*wk = 8: the paper's break-even rule says TJ
  // must win.
  JoinStats stats = UniqueKeyStats();
  EXPECT_LT(TrackJoin2Cost(stats), HashJoinCost(stats));
}

TEST(NetworkCostTest, TrackJoin2LosesOnTinyPayloads) {
  JoinStats stats = UniqueKeyStats();
  stats.w_r = 1;
  stats.w_s = 1;  // max payload < 2*wk: hash join should win.
  EXPECT_GT(TrackJoin2Cost(stats), HashJoinCost(stats));
}

TEST(NetworkCostTest, TrackJoin2Formula) {
  JoinStats stats = UniqueKeyStats();
  // nR = nS = mS = 1.
  // track = (1e9 + 1e9)*4 = 8e9; locations = 1e9*1*4 = 4e9;
  // data = 1e9*1*1*20 = 2e10. Total 3.2e10.
  EXPECT_DOUBLE_EQ(TrackJoin2Cost(stats), 3.2e10);
}

TEST(NetworkCostTest, TrackJoin3ClassesInterpolate) {
  JoinStats stats = UniqueKeyStats();
  double all_rs = TrackJoin3Cost(stats, {1.0, 0.0, 0.0});
  double all_sr = TrackJoin3Cost(stats, {0.0, 1.0, 0.0});
  double half = TrackJoin3Cost(stats, {0.5, 0.5, 0.0});
  EXPECT_LT(all_rs, all_sr);  // R is narrower.
  EXPECT_NEAR(half, (all_rs + all_sr) / 2, 1.0);
}

TEST(NetworkCostTest, TrackJoin4HashClassCostsLikeHashJoinPlusTracking) {
  JoinStats stats = UniqueKeyStats();
  double tj4 = TrackJoin4Cost(stats, {0.0, 0.0, 1.0});
  EXPECT_GT(tj4, HashJoinCost(stats));  // Data like HJ + tracking + locations.
  EXPECT_LT(tj4, HashJoinCost(stats) * 1.5);
}

TEST(NetworkCostTest, RidHashJoinDominatedBy2TJ) {
  // Section 3.2: "the simplest 2-phase track join subsumes the rid-based
  // tracking-aware hash join" — for realistic widths.
  JoinStats stats = UniqueKeyStats();
  EXPECT_LT(TrackJoin2Cost(stats), RidTrackingHashJoinCost(stats));
}

TEST(NetworkCostTest, LateMaterializationExplodesOnLargeOutputs) {
  JoinStats stats = UniqueKeyStats();
  stats.t_rs = 5.4 * stats.t_r;  // Workload Y's output blow-up.
  EXPECT_GT(LateMaterializedHashJoinCost(stats), HashJoinCost(stats));
}

TEST(NetworkCostTest, FilteredCostsGrowWithError) {
  JoinStats stats = UniqueKeyStats();
  stats.s_r = 0.1;
  stats.s_s = 0.1;
  double tight = FilteredHashJoinCost(stats, 1.25, 0.01);
  double loose = FilteredHashJoinCost(stats, 1.25, 0.2);
  EXPECT_LT(tight, loose);
  double f2tj_tight = FilteredTrackJoin2Cost(stats, 1.25, 0.01);
  double f2tj_loose = FilteredTrackJoin2Cost(stats, 1.25, 0.2);
  EXPECT_LT(f2tj_tight, f2tj_loose);
  double flate_tight = FilteredLateMaterializedHashJoinCost(stats, 1.25, 0.01);
  double flate_loose = FilteredLateMaterializedHashJoinCost(stats, 1.25, 0.2);
  EXPECT_LT(flate_tight, flate_loose);
}

TEST(NetworkCostTest, SelectiveTrackJoinSkipsNonMatching) {
  JoinStats stats = UniqueKeyStats();
  stats.s_r = 0.1;  // 90% of R never ships payloads in track join.
  double selective = TrackJoin2Cost(stats);
  stats.s_r = 1.0;
  double full = TrackJoin2Cost(stats);
  // Tracking and location messages are selectivity-independent in the
  // paper's formula; only the tuple-transfer term shrinks by 10x.
  EXPECT_LT(selective, full * 0.5);
}

}  // namespace
}  // namespace tj
