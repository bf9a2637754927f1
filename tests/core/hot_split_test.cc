// Unit tests for heavy-hitter splitting: the PlanHotSplit planner against
// hand-computed costs/bottlenecks, the w = 1 reduction to the migration
// plan, the threshold detector, and end-to-end output identity of 4TJ with
// splitting on vs off.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/schedule.h"
#include "core/track_join.h"
#include "core/tracker.h"
#include "workload/generator.h"

namespace tj {
namespace {

KeyPlacement MakePlacement(std::vector<uint64_t> r_sizes,
                           std::vector<uint64_t> s_sizes, uint32_t tracker,
                           uint64_t msg_bytes) {
  KeyPlacement p;
  for (uint32_t i = 0; i < r_sizes.size(); ++i) {
    if (r_sizes[i] > 0) p.r.push_back(NodeSize{i, r_sizes[i]});
  }
  for (uint32_t i = 0; i < s_sizes.size(); ++i) {
    if (s_sizes[i] > 0) p.s.push_back(NodeSize{i, s_sizes[i]});
  }
  p.tracker = tracker;
  p.msg_bytes = msg_bytes;
  return p;
}

// Symmetric placement, unit-width tuples, M = 0:
// R = {10,10,10,10}, S = {6,6,6,6}.
//   Selective broadcast: R->S 40*4-40 = 120, S->R 24*4-24 = 72.
//   Full migration (either direction, to node 0): (40-10)+(24-6) = 48.
KeyPlacement SymmetricPlacement() {
  return MakePlacement({10, 10, 10, 10}, {6, 6, 6, 6}, /*tracker=*/0,
                       /*msg_bytes=*/0);
}

TEST(HotSplitTest, WidthOneReducesToMigrationPlan) {
  KeyPlacement p = SymmetricPlacement();
  KeySchedule sched = PlanOptimal(p);
  // The optimal plan migrates every non-kept target to one node.
  EXPECT_EQ(sched.plan.migrate.size(), 3u);
  EXPECT_EQ(sched.plan.cost, 48u);

  HotKeyPlan hot = PlanHotSplit(p, /*width_r=*/1, /*width_s=*/1,
                                /*max_split=*/1);
  ASSERT_TRUE(hot.valid);
  EXPECT_EQ(hot.split(), 1u);
  // The single worker is exactly the node the migration plan keeps, at
  // exactly the full-migration price, and both models agree on the
  // per-node bottleneck: everything funnels through that node.
  EXPECT_EQ(hot.workers[0], sched.plan.dest);
  EXPECT_EQ(hot.cost, sched.plan.cost);
  EXPECT_EQ(hot.bottleneck, PlanBottleneck(p, sched.dir, sched.plan));
  EXPECT_EQ(hot.bottleneck, 48u);
}

TEST(HotSplitTest, UncappedStopsBelowBroadcastDegeneracy) {
  KeyPlacement p = SymmetricPlacement();
  HotKeyPlan hot = PlanHotSplit(p, 1, 1, /*max_split=*/0);
  ASSERT_TRUE(hot.valid);
  // S->R, w = 3: broadcast S (24 bytes) to workers {0,1,2}; node 3's 10 R
  // rows fragment 4/3/3. Cost = 24*3 - 18 + (40 - 30) = 64; bottleneck =
  // 4 + (24 - 6) = 22.
  //
  // w = 4 would have bottleneck 18 but its cost (72) equals plain S->R
  // selective broadcast — the degenerate case the planner must reject —
  // so the uncapped search settles at w = 3.
  EXPECT_EQ(hot.dir, Direction::kStoR);
  EXPECT_EQ(hot.split(), 3u);
  EXPECT_EQ(hot.workers, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(hot.cost, 64u);
  EXPECT_EQ(hot.bottleneck, 22u);
  EXPECT_LT(hot.cost, SelectiveBroadcastCost(p, Direction::kStoR));
}

TEST(HotSplitTest, RankedWorkersAbsorbRemainderRows) {
  // Uneven placement: R = {8,8,8,8}, S = {9,3,0,0}, M = 0. The planner
  // broadcasts the small S side and fragments R. Workers ranked by local
  // bytes (r+s): node0 (17), node1 (11), then the node2/node3 tie breaks
  // to the lower id. At w = 3 only node3's 8 R rows move, chunked 3/3/2
  // (earlier workers take the remainder): cost = 12*3 - 12 + (32 - 24) =
  // 32, bottleneck = node2's 2 + (12 - 0) = 14. w = 4 would cost 36 —
  // exactly plain S->R broadcast — and is rejected as degenerate.
  KeyPlacement p = MakePlacement({8, 8, 8, 8}, {9, 3, 0, 0}, 0, 0);
  HotKeyPlan hot = PlanHotSplit(p, 1, 1, 0);
  ASSERT_TRUE(hot.valid);
  EXPECT_EQ(hot.dir, Direction::kStoR);
  EXPECT_EQ(hot.workers, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(hot.cost, 32u);
  EXPECT_EQ(hot.bottleneck, 14u);
}

TEST(HotSplitTest, MessageBytesArePriced) {
  // Same shape as SymmetricPlacement but M = 2 and tracker = 0: location
  // pairs to broadcast-side holders and fragment instructions to
  // non-worker holders each cost w * M, free for the tracker itself.
  KeyPlacement p = MakePlacement({10, 10, 10, 10}, {6, 6, 6, 6}, 0, 2);
  HotKeyPlan hot = PlanHotSplit(p, 1, 1, 3);
  ASSERT_TRUE(hot.valid);
  // S->R w=3: base 64; 3 non-tracker S holders get 3 pairs (18) and the
  // non-worker R holder (node 3, not tracker) gets 3 pairs (6): 88.
  EXPECT_EQ(hot.dir, Direction::kStoR);
  EXPECT_EQ(hot.split(), 3u);
  EXPECT_EQ(hot.cost, 88u);
}

TEST(HotSplitTest, EmptySideIsInvalid) {
  KeyPlacement p = MakePlacement({5, 5}, {0, 0}, 0, 0);
  EXPECT_FALSE(PlanHotSplit(p, 1, 1, 0).valid);
}

TEST(HotSplitTest, ThresholdDetectorBoundary) {
  // One key on two nodes: 10 R rows x 10 S rows = 100 output rows.
  std::vector<TrackEntry> r = {{1, 0, 4}, {1, 1, 6}};
  std::vector<TrackEntry> s = {{1, 0, 10}};
  PlacementIterator it(r, s, 1, 1, 0, 0);
  ASSERT_TRUE(it.Next());
  EXPECT_EQ(it.r_row_count(), 10u);
  EXPECT_EQ(it.s_row_count(), 10u);
  EXPECT_TRUE(it.OutputProductAtLeast(99));
  EXPECT_TRUE(it.OutputProductAtLeast(100));   // Inclusive boundary.
  EXPECT_FALSE(it.OutputProductAtLeast(101));
}

TEST(HotSplitTest, ThresholdDetectorSaturatesOnOverflow) {
  // Three full per-node counts a side, about 2^33.6 rows each: the product
  // overflows uint64, and the detector must treat that as "at least any
  // threshold", not wrap around to a small product.
  std::vector<TrackEntry> r = {
      {1, 0, UINT32_MAX}, {1, 1, UINT32_MAX}, {1, 2, UINT32_MAX}};
  std::vector<TrackEntry> s = {
      {1, 0, UINT32_MAX}, {1, 1, UINT32_MAX}, {1, 2, UINT32_MAX}};
  PlacementIterator it(r, s, 1, 1, 0, 0);
  ASSERT_TRUE(it.Next());
  EXPECT_TRUE(it.OutputProductAtLeast(~0ull));
}

// End-to-end: on a skewed workload, splitting must not change the join
// output (rows and checksum), must fire on the head keys, and must lower
// the per-node compute bottleneck; on the same workload with the
// threshold off, no fragment traffic may exist.
TEST(HotSplitTest, SplitOutputIdenticalAndComputeSpread) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 8;
  spec.key_domain = 4000;
  spec.r_rows = 8000;
  spec.s_rows = 8000;
  spec.r_theta = 1.2;
  spec.s_theta = 1.2;
  spec.seed = 99;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));

  JoinConfig config;
  config.key_bytes = 4;
  JoinResult off = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                              TrackJoinVersion::k4Phase));
  config.hot_key_threshold = 10000;
  config.hot_key_max_split = 4;
  JoinResult on = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k4Phase));

  EXPECT_EQ(off.output_rows, w.expected_output_rows);
  EXPECT_EQ(on.output_rows, off.output_rows);
  EXPECT_EQ(on.checksum, off.checksum);

  // Splitting actually happened: fragment instructions moved...
  EXPECT_GT(on.traffic.NetworkBytes(MessageType::kFragmentR) +
                on.traffic.NetworkBytes(MessageType::kFragmentS),
            0u);
  // ...and the run without a threshold moved none.
  EXPECT_EQ(off.traffic.NetworkBytes(MessageType::kFragmentR), 0u);
  EXPECT_EQ(off.traffic.NetworkBytes(MessageType::kFragmentS), 0u);

  // The head key's product no longer lands on one node: the max per-node
  // output (compute bottleneck) drops.
  ASSERT_EQ(off.node_output_rows.size(), spec.num_nodes);
  ASSERT_EQ(on.node_output_rows.size(), spec.num_nodes);
  uint64_t off_sum = 0, on_sum = 0;
  for (uint64_t v : off.node_output_rows) off_sum += v;
  for (uint64_t v : on.node_output_rows) on_sum += v;
  EXPECT_EQ(off_sum, off.output_rows);
  EXPECT_EQ(on_sum, on.output_rows);
  uint64_t off_max =
      *std::max_element(off.node_output_rows.begin(),
                        off.node_output_rows.end());
  uint64_t on_max = *std::max_element(on.node_output_rows.begin(),
                                      on.node_output_rows.end());
  EXPECT_LT(on_max, off_max);
}

// The holder routing both drivers share: whole-run pairs route exactly what
// a per-pair EqualRange routes, also when node grouping makes the key
// sequence restart and for keys the block lacks; fragment pairs split
// exactly as SplitHotRuns does.
TEST(HotSplitTest, RouteInstructedRowsMatchesPerPairEqualRange) {
  TupleBlock block(0);
  for (uint64_t key : {1, 1, 3, 4, 4, 4, 7, 9, 9}) block.Append(key, nullptr);
  // Node-grouped pairs: ascending keys within each node's group.
  const std::vector<KeyNodePair> pairs = {
      {1, 2}, {4, 2}, {8, 2}, {9, 2},  // node 2
      {0, 0}, {3, 0}, {4, 0}, {10, 0},  // node 0, key sequence restarts
      {9, 1}, {9, 1}, {2, 1}};          // node 1, repeat then descend
  std::vector<std::vector<uint32_t>> routed(3), expected(3);
  RouteInstructedRows(block, pairs, /*split=*/false, &routed);
  for (const KeyNodePair& pair : pairs) {
    auto [lo, hi] = block.EqualRange(pair.key);
    for (uint64_t row = lo; row < hi; ++row) {
      expected[pair.node].push_back(static_cast<uint32_t>(row));
    }
  }
  EXPECT_EQ(routed, expected);
  EXPECT_EQ(routed[0], (std::vector<uint32_t>{2, 3, 4, 5}));

  // Fragments: key 4's run splits across workers 1, 0, 2 in split order.
  const std::vector<KeyNodePair> fragments = {{4, 1}, {4, 0}, {4, 2}};
  std::vector<std::vector<uint32_t>> split(3), split_expected(3);
  RouteInstructedRows(block, fragments, /*split=*/true, &split);
  SplitHotRuns(block, fragments, &split_expected);
  EXPECT_EQ(split, split_expected);
  EXPECT_EQ(split[1], (std::vector<uint32_t>{3}));
}

// The pipelined holder routes over one tracker's run of a tracker-major
// block: the same rows, offset by the run's start, as routing over that run
// alone, for whole-run and fragment pairs; rows outside the run (here with
// the same keys) are never routed.
TEST(HotSplitTest, RouteInstructedRowsOverRowRange) {
  const std::vector<uint64_t> before = {4, 9, 1}, run = {1, 1, 3, 4, 4, 4, 9},
                              after = {3, 0};
  TupleBlock block(0), alone(0);
  for (const auto* keys : {&before, &run, &after}) {
    for (uint64_t key : *keys) block.Append(key, nullptr);
  }
  for (uint64_t key : run) alone.Append(key, nullptr);
  const uint64_t first = before.size(), last = first + run.size();
  for (bool split : {false, true}) {
    const std::vector<KeyNodePair> pairs =
        split ? std::vector<KeyNodePair>{{4, 1}, {4, 0}, {9, 2}}
              : std::vector<KeyNodePair>{{1, 2}, {4, 0}, {9, 1}, {0, 0},
                                         {3, 1}};
    std::vector<std::vector<uint32_t>> routed(3), expected(3);
    RouteInstructedRows(block, first, last, pairs, split, &routed);
    RouteInstructedRows(alone, pairs, split, &expected);
    for (std::vector<uint32_t>& rows : expected) {
      for (uint32_t& row : rows) row += static_cast<uint32_t>(first);
    }
    EXPECT_EQ(routed, expected) << "split " << split;
  }
}

// End to end through the barrier driver: node-grouped location messages
// (--group) route the same rows as plain ones while hot-split fragments and
// migrations move, so every data type's traffic and the output match.
TEST(HotSplitTest, GroupedLocationsRouteLikePlain) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 8;
  spec.key_domain = 4000;
  spec.r_rows = 8000;
  spec.s_rows = 8000;
  spec.r_theta = 1.2;
  spec.s_theta = 1.2;
  spec.seed = 99;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));

  JoinConfig config;
  config.key_bytes = 4;
  config.hot_key_threshold = 10000;
  JoinResult plain = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
  config.group_locations = true;
  JoinResult grouped = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                  TrackJoinVersion::k4Phase));

  EXPECT_GT(plain.traffic.NetworkBytes(MessageType::kFragmentR) +
                plain.traffic.NetworkBytes(MessageType::kFragmentS),
            0u);
  EXPECT_GT(plain.traffic.NetworkBytes(MessageType::kMigrationDataR) +
                plain.traffic.NetworkBytes(MessageType::kMigrationDataS),
            0u);
  EXPECT_EQ(grouped.checksum, plain.checksum);
  EXPECT_EQ(grouped.node_output_rows, plain.node_output_rows);
  for (MessageType type :
       {MessageType::kDataR, MessageType::kDataS, MessageType::kMigrationDataR,
        MessageType::kMigrationDataS, MessageType::kFragmentR,
        MessageType::kFragmentS}) {
    EXPECT_EQ(grouped.traffic.NetworkBytes(type),
              plain.traffic.NetworkBytes(type))
        << MessageTypeName(type);
    EXPECT_EQ(grouped.traffic.LocalBytes(type), plain.traffic.LocalBytes(type))
        << MessageTypeName(type);
  }
}

// A uniform workload must be byte-identical with the feature enabled: the
// threshold is never reached, so the traffic matrices match exactly.
TEST(HotSplitTest, UniformWorkloadUnaffected) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 4;
  spec.key_domain = 2000;
  spec.r_rows = 6000;
  spec.s_rows = 6000;
  spec.r_theta = 0.0;
  spec.s_theta = 0.0;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));

  JoinConfig config;
  config.key_bytes = 4;
  JoinResult off = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                              TrackJoinVersion::k4Phase));
  config.hot_key_threshold = 1000;  // Far above any uniform key's product.
  JoinResult on = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k4Phase));

  EXPECT_EQ(on.checksum, off.checksum);
  EXPECT_EQ(on.traffic.TotalNetworkBytes(), off.traffic.TotalNetworkBytes());
  for (int t = 0; t < kNumMessageTypes; ++t) {
    EXPECT_EQ(on.traffic.NetworkBytes(static_cast<MessageType>(t)),
              off.traffic.NetworkBytes(static_cast<MessageType>(t)))
        << MessageTypeName(static_cast<MessageType>(t));
  }
}

}  // namespace
}  // namespace tj
