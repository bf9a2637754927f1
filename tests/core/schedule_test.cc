// Unit tests for the per-key scheduler's cost functions against
// hand-computed values, including the paper's worked examples (Figures 1-2).
#include "core/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "core/tracker.h"

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

// Figure 1 of the paper: R = {2,0,4,0,0}, S = {0,3,0,1,0}, unit-size
// tuples, message costs ignored (M = 0).
//
// 2-phase (R -> S): 6 R bytes to 2 S locations, no R local to S = 12.
// 3-phase picks S -> R: 4 S bytes to 2 R locations, none local = 8.
// 4-phase: migrate node3's single S tuple to node1, then S -> R:
//   migration 1 + (3+1) S bytes x 2 R locations - 0 local ... = 6? The
//   paper reports cost 6: migrate 1 (S from node3 to node1) + broadcast
//   4+1 = 5 to ... Let's simply assert the paper's totals.
TEST(ScheduleTest, PaperFigure1Example) {
  KeyPlacement p = MakePlacement({2, 0, 4, 0, 0}, {0, 3, 0, 1, 0},
                                 /*tracker=*/4, /*msg_bytes=*/0);
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kRtoS), 12u);
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kStoR), 8u);
  EXPECT_EQ(CheaperBroadcastDirection(p), Direction::kStoR);
  KeySchedule sched = PlanOptimal(p);
  EXPECT_EQ(sched.plan.cost, 6u);
}

// Figure 2 of the paper: R = {0,4,8,9,6}, S = {0,2,5,3,1}, M = 0.
// Selective broadcast R->S: Rall=27 to 4 S locations = 108, minus
// Rlocal=27 -> 81?? The figure caption says cost 0+33 for the broadcast of
// S (the figure optimizes the S->R direction): Sall=11 x 4 R-locations=44
// minus Slocal=11 -> 33. Then migrating node4 (S=1,R=6 -> saves), node1
// (S=2,R=4), keeping node2... The caption sequence ends at cost 10+14=24.
TEST(ScheduleTest, PaperFigure2Example) {
  KeyPlacement p = MakePlacement({0, 4, 8, 9, 6}, {0, 2, 5, 3, 1},
                                 /*tracker=*/0, /*msg_bytes=*/0);
  // S -> R plain selective broadcast: Sall=11, Rnodes(locations)=4,
  // Slocal = 11 (every S node also holds R): 11*4 - 11 = 33.
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kStoR), 33u);
  MigrationPlan plan = PlanMigrateAndBroadcast(p, Direction::kStoR);
  // Paper's walk: migrate node1 (cost 4+24=28), keep node3 (13+16=29
  // rejected), migrate node4 (10+14=24). Final cost 24, kept = {node2}.
  // Wait: the kept node maximizing |R|+|S| is node3 (9+3=12) vs node2
  // (8+5=13) -> node2 is forced kept. Decisions: node1: 2+4-11=-5 migrate;
  // node3: 3+9-11=+1 keep; node4: 1+6-11=-4 migrate. Cost = 33-5-4 = 24.
  EXPECT_EQ(plan.cost, 24u);
  EXPECT_EQ(plan.dest, 2u);
  EXPECT_EQ(plan.migrate, (std::vector<uint32_t>{1, 4}));
  // And the R->S direction is worse, so 4TJ picks S->R at 24.
  KeySchedule sched = PlanOptimal(p);
  EXPECT_EQ(sched.dir, Direction::kStoR);
  EXPECT_EQ(sched.plan.cost, 24u);
}

TEST(ScheduleTest, EmptySideCostsNothing) {
  KeyPlacement p = MakePlacement({5, 5}, {0, 0}, 0, 2);
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kRtoS), 0u);
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kStoR), 0u);
  EXPECT_EQ(PlanMigrateAndBroadcast(p, Direction::kRtoS).cost, 0u);
  EXPECT_EQ(PlanOptimal(p).plan.cost, 0u);
}

TEST(ScheduleTest, SingleNodeCollocatedIsFreeExceptMessages) {
  // All tuples of both tables on node 1; tracker on node 0; M = 3.
  KeyPlacement p = MakePlacement({0, 10}, {0, 20}, 0, 3);
  // R->S: Rall=10, Snodes=1, Rlocal=10, Rnodes=1 (node1 != tracker):
  // 10*1 - 10 + 1*1*3 = 3 (one location message).
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kRtoS), 3u);
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kStoR), 3u);
  EXPECT_EQ(PlanOptimal(p).plan.cost, 3u);
}

TEST(ScheduleTest, TrackerLocationMessagesAreFree) {
  // Broadcast side entirely on the tracker node: no location messages.
  KeyPlacement p = MakePlacement({10, 0}, {0, 20}, /*tracker=*/0,
                                 /*msg_bytes=*/5);
  // R->S: Rall=10 to 1 S node, Rlocal=0, Rnodes=0 (only node0==tracker):
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kRtoS), 10u);
  // S->R: Sall=20 to 1 R node, Slocal=0, Snodes(bcast)=1 (node1!=tracker):
  EXPECT_EQ(SelectiveBroadcastCost(p, Direction::kStoR), 20u + 5u);
  EXPECT_EQ(PlanOptimal(p).dir, Direction::kRtoS);
}

TEST(ScheduleTest, MigrationConsolidatesToHeaviestNode) {
  // S spread over 3 nodes, R huge on one node: everything should meet at
  // the R node if it holds S too, else at the largest S node.
  KeyPlacement p = MakePlacement({0, 0, 0, 100}, {7, 8, 9, 10}, 0, 0);
  MigrationPlan plan = PlanMigrateAndBroadcast(p, Direction::kRtoS);
  EXPECT_EQ(plan.dest, 3u);  // |R|+|S| = 110 dominates.
  // Nodes 0,1,2 all migrate: delta_i = 0 + s_i - 100 < 0.
  EXPECT_EQ(plan.migrate, (std::vector<uint32_t>{0, 1, 2}));
  // Cost: broadcast phase is free (R stays at node3, the only location);
  // migrations cost 7+8+9 = 24.
  EXPECT_EQ(plan.cost, 24u);
}

TEST(ScheduleTest, TieBreaksPreferRtoS) {
  KeyPlacement p = MakePlacement({4, 0}, {0, 4}, 0, 0);
  EXPECT_EQ(CheaperBroadcastDirection(p), Direction::kRtoS);
  EXPECT_EQ(PlanOptimal(p).dir, Direction::kRtoS);
}

TEST(ScheduleTest, MigrationInstructionCostCountsUnlessTracker) {
  // Tracker is node 0 and holds S; migrating it away needs no instruction
  // message, while migrating node 1 costs one instruction of M bytes.
  KeyPlacement with_tracker_s =
      MakePlacement({0, 0, 50}, {3, 0, 4}, /*tracker=*/0, /*msg_bytes=*/2);
  MigrationPlan plan =
      PlanMigrateAndBroadcast(with_tracker_s, Direction::kRtoS);
  // dest = node2 (50+4). node0 migrates: delta = 0+3-50-(1*2) = -49 (no +M
  // because it's the tracker). Cost = bcast(50*2 - 50 + 1*2*2 = 54) - 49 = 5.
  EXPECT_EQ(plan.dest, 2u);
  EXPECT_EQ(plan.migrate, (std::vector<uint32_t>{0}));
  EXPECT_EQ(plan.cost, 5u);
}

TEST(InstructionStreamTest, EachInstructionTypeOnceWithItsDataType) {
  // Every instruction type has exactly one stream, on its table's side, and
  // ships the data type a receiver handles for it: location lists
  // broadcast, migrations and hot-split fragments migrate.
  struct Expected {
    MessageType instr;
    MessageType data;
    bool r_side;
  };
  const Expected expected[] = {
      {MessageType::kLocationsToR, MessageType::kDataR, true},
      {MessageType::kLocationsToS, MessageType::kDataS, false},
      {MessageType::kMigrateR, MessageType::kMigrationDataR, true},
      {MessageType::kMigrateS, MessageType::kMigrationDataS, false},
      {MessageType::kFragmentR, MessageType::kMigrationDataR, true},
      {MessageType::kFragmentS, MessageType::kMigrationDataS, false},
  };
  const auto streams = InstructionStreams(TrackJoinVersion::k4Phase);
  ASSERT_EQ(streams.size(), std::size(expected));
  for (const Expected& e : expected) {
    SCOPED_TRACE(MessageTypeName(e.instr));
    const auto count = std::count_if(
        streams.begin(), streams.end(),
        [&](const InstructionStream& s) { return s.instr == e.instr; });
    ASSERT_EQ(count, 1);
    const InstructionStream& stream = *std::find_if(
        streams.begin(), streams.end(),
        [&](const InstructionStream& s) { return s.instr == e.instr; });
    EXPECT_EQ(stream.data, e.data);
    EXPECT_EQ(stream.r_side, e.r_side);
    EXPECT_EQ(stream.migrates(), e.data == MessageType::kMigrationDataR ||
                                     e.data == MessageType::kMigrationDataS);
    // Receivers register one data handler per non-split stream; a split
    // stream's data must land on the handler of its side's migration.
    const auto handlers = std::count_if(
        streams.begin(), streams.end(), [&](const InstructionStream& s) {
          return !s.split && s.data == stream.data && s.r_side == stream.r_side;
        });
    EXPECT_EQ(handlers, 1);
  }
  // 2- and 3-phase runs send location lists only.
  for (TrackJoinVersion version :
       {TrackJoinVersion::k2Phase, TrackJoinVersion::k3Phase}) {
    const auto few = InstructionStreams(version);
    ASSERT_EQ(few.size(), 2u);
    EXPECT_FALSE(few[0].migrates() || few[1].migrates());
  }
}

// The pipelined holder never drops the rows it migrates or fragments away
// from its home runs (DESIGN.md §3, "Moved rows"). That is exact only
// because (a) a holder instructed to move one side's rows of a key is
// never a location of the other side's broadcast of that key, so its dead
// rows meet nothing, and (b) no migration or fragment names its own
// holder, which would leave the rows both kept and moved.
TEST(KeyPlannerTest, MovedRowsMeetNoBroadcast) {
  Rng rng(11);
  for (bool hot_split : {false, true}) {
    for (bool balance : {false, true}) {
      JoinConfig config;
      config.hot_key_threshold = hot_split ? 40 : 0;
      config.balance_loads = balance;
      uint64_t migrations = 0;
      uint64_t fragments = 0;
      for (int trial = 0; trial < 60; ++trial) {
        const uint32_t n = 2 + static_cast<uint32_t>(rng.Below(7));
        // Random placements of 80 keys, some nodes holding many rows of a
        // key, so that migrations and hot splits both pay off.
        std::vector<TrackEntry> tracked[2];
        for (uint64_t key = 0; key < 80; ++key) {
          for (std::vector<TrackEntry>& side : tracked) {
            for (uint32_t node = 0; node < n; ++node) {
              if (rng.Below(3) != 0) continue;
              const uint64_t rows =
                  rng.Below(4) == 0 ? 10 + rng.Below(60) : 1 + rng.Below(3);
              side.push_back({key, node, static_cast<uint32_t>(rows)});
            }
          }
        }
        SCOPED_TRACE("hot_split=" + std::to_string(hot_split) +
                     " balance=" + std::to_string(balance) +
                     " trial=" + std::to_string(trial));
        KeyPlanOutputs outs(n);
        KeyPlanner(config, TrackJoinVersion::k4Phase, Direction::kRtoS, n,
                   /*tracker=*/trial % n, /*width_r=*/12, /*width_s=*/20,
                   /*audit=*/nullptr)
            .PlanBatch(tracked[0], tracked[1], &outs);
        // (key, node) pairs: broadcast receivers per side, movers per side.
        std::set<std::pair<uint64_t, uint32_t>> receives[2], moves[2];
        for (uint32_t holder = 0; holder < n; ++holder) {
          for (const KeyNodePair& pair : outs.loc_to_r[holder]) {
            receives[0].emplace(pair.key, pair.node);
          }
          for (const KeyNodePair& pair : outs.loc_to_s[holder]) {
            receives[1].emplace(pair.key, pair.node);
          }
          for (int side : {0, 1}) {
            const auto& migr = side == 0 ? outs.migr_r : outs.migr_s;
            const auto& frag = side == 0 ? outs.frag_r : outs.frag_s;
            for (const KeyNodePair& pair : migr[holder]) {
              EXPECT_NE(pair.node, holder) << "key " << pair.key;
              moves[side].emplace(pair.key, holder);
              ++migrations;
            }
            for (const KeyNodePair& pair : frag[holder]) {
              EXPECT_NE(pair.node, holder) << "key " << pair.key;
              moves[side].emplace(pair.key, holder);
              ++fragments;
            }
          }
        }
        for (int side : {0, 1}) {
          for (const auto& [key, holder] : moves[side]) {
            EXPECT_FALSE(receives[1 - side].count({key, holder}))
                << "node " << holder << " moves key " << key
                << " away and receives the other side's broadcast of it";
          }
        }
      }
      EXPECT_GT(migrations, 0u);
      EXPECT_EQ(fragments > 0, hot_split);
    }
  }
}

}  // namespace
}  // namespace tj
