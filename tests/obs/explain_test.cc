#include "obs/explain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/schedule.h"
#include "core/track_join.h"
#include "workload/generator.h"

namespace tj {
namespace {

TEST(AuditPlacementTest, FillsBothDirectionsAndPlacementSummary) {
  KeyPlacement p;
  p.r = {{0, 100}, {1, 10}};
  p.s = {{1, 40}};
  p.tracker = 0;
  p.msg_bytes = 5;
  KeyScheduleAudit audit = AuditPlacement(p);
  EXPECT_EQ(audit.broadcast_cost[0], SelectiveBroadcastCost(p, Direction::kRtoS));
  EXPECT_EQ(audit.broadcast_cost[1], SelectiveBroadcastCost(p, Direction::kStoR));
  MigrationPlan r_plan = PlanMigrateAndBroadcast(p, Direction::kRtoS);
  MigrationPlan s_plan = PlanMigrateAndBroadcast(p, Direction::kStoR);
  EXPECT_EQ(audit.plan_cost[0], r_plan.cost);
  EXPECT_EQ(audit.plan_cost[1], s_plan.cost);
  EXPECT_EQ(audit.migrate_count[0], r_plan.migrate.size());
  EXPECT_EQ(audit.migrate_count[1], s_plan.migrate.size());
  EXPECT_EQ(audit.r_bytes, 110u);
  EXPECT_EQ(audit.s_bytes, 40u);
  EXPECT_EQ(audit.r_nodes, 2u);
  EXPECT_EQ(audit.s_nodes, 1u);
  // Hash join ships everything not already at the hash destination (the
  // tracker): 110 + 40 minus the 100 R bytes resident at node 0.
  EXPECT_EQ(audit.hash_join_cost, 50u);
}

TEST(AuditPlacementTest, ClassifyAudit) {
  KeyScheduleAudit audit;
  audit.chosen_cost = 0;
  audit.chosen_migrations = 0;
  EXPECT_EQ(ClassifyAudit(audit), ScheduleClass::kFree);
  audit.chosen_cost = 10;
  audit.chosen_dir = Direction::kRtoS;
  EXPECT_EQ(ClassifyAudit(audit), ScheduleClass::kBroadcastRtoS);
  audit.chosen_dir = Direction::kStoR;
  EXPECT_EQ(ClassifyAudit(audit), ScheduleClass::kBroadcastStoR);
  audit.chosen_migrations = 2;
  EXPECT_EQ(ClassifyAudit(audit), ScheduleClass::kMigrated);
  // A split key is hot_split no matter what else the record says.
  audit.chosen_split = 3;
  EXPECT_EQ(ClassifyAudit(audit), ScheduleClass::kHotSplit);
  audit.chosen_migrations = 0;
  EXPECT_EQ(ClassifyAudit(audit), ScheduleClass::kHotSplit);
}

TEST(ScheduleAuditLogTest, CollectConcatenatesInNodeOrder) {
  ScheduleAuditLog log;
  EXPECT_FALSE(log.armed());
  log.Reset(3);
  EXPECT_TRUE(log.armed());
  KeyScheduleAudit a;
  a.key = 7;
  log.Record(2, a);
  a.key = 3;
  log.Record(0, a);
  std::vector<KeyScheduleAudit> all = log.Collect();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].key, 3u);
  EXPECT_EQ(all[1].key, 7u);
  log.Reset(3);
  EXPECT_TRUE(log.Collect().empty());
}

Workload SpreadWorkload() {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.seed = 7;
  spec.matched_keys = 200;
  spec.r_multiplicity = 6;
  spec.s_multiplicity = 6;
  spec.r_pattern = {5, 1};
  spec.s_pattern = {1, 5};
  spec.collocation = Collocation::kIntra;
  spec.r_unmatched = 40;
  spec.s_unmatched = 0;
  spec.r_payload = 4;
  spec.s_payload = 4;
  return GenerateWorkload(spec);
}

ScheduleExplain RunAudited(const Workload& w, TrackJoinVersion version,
                           bool balance, const std::string& label) {
  JoinConfig config;
  config.key_bytes = 4;
  config.balance_loads = balance;
  ScheduleAuditLog audit;
  config.schedule_audit = &audit;
  Result<JoinResult> run = TryRunTrackJoin(w.r, w.s, config, version);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return BuildScheduleExplain(label, audit, run.value().traffic,
                              /*top_k=*/5);
}

/// The headline acceptance invariant: summing the per-key audited costs
/// reproduces the run's scheduled network traffic byte-for-byte, and
/// adding the tracking bytes reproduces the run's entire network traffic.
void ExpectExact(const ScheduleExplain& e) {
  EXPECT_TRUE(e.matches_traffic) << e.algorithm << ": audited "
                                 << e.scheduled_bytes << " B vs traffic "
                                 << e.traffic_scheduled_bytes << " B";
  EXPECT_EQ(e.scheduled_bytes + e.tracking_bytes, e.traffic_total_bytes)
      << e.algorithm;
  uint64_t class_keys = 0, class_bytes = 0;
  for (int c = 0; c < kNumScheduleClasses; ++c) {
    class_keys += e.by_class[c].keys;
    class_bytes += e.by_class[c].bytes;
  }
  EXPECT_EQ(class_keys, e.total_keys) << e.algorithm;
  EXPECT_EQ(class_bytes, e.scheduled_bytes) << e.algorithm;
}

TEST(ScheduleExplainTest, ThreePhaseAuditMatchesTrafficExactly) {
  Workload w = SpreadWorkload();
  ScheduleExplain e = RunAudited(w, TrackJoinVersion::k3Phase, false, "3tj");
  // One record per scheduled key: exactly the 200 matched keys (unmatched
  // keys die at the tracker and never reach the scheduler).
  EXPECT_EQ(e.total_keys, 200u);
  ExpectExact(e);
  // All 4-phase candidate fields are populated even when 3-phase ran.
  ASSERT_FALSE(e.top.empty());
  EXPECT_LE(e.top.size(), 5u);
  for (const KeyScheduleAudit& rec : e.top) {
    EXPECT_EQ(rec.chosen_migrations, 0u);
    EXPECT_GT(rec.chosen_cost, 0u);
    EXPECT_EQ(rec.chosen_cost,
              rec.broadcast_cost[static_cast<int>(rec.chosen_dir)]);
  }
}

TEST(ScheduleExplainTest, FourPhaseAuditMatchesTrafficExactly) {
  Workload w = SpreadWorkload();
  ScheduleExplain e = RunAudited(w, TrackJoinVersion::k4Phase, false, "4tj");
  EXPECT_EQ(e.total_keys, 200u);
  ExpectExact(e);
  // This workload makes consolidation profitable: 5/1-spread fragments on
  // both sides, so the 4-phase plan migrates for most matched keys.
  EXPECT_GT(e.by_class[static_cast<int>(ScheduleClass::kMigrated)].keys, 0u);
  // The chosen plan never exceeds either pure-broadcast candidate.
  for (const KeyScheduleAudit& rec : e.top) {
    EXPECT_LE(rec.chosen_cost, rec.broadcast_cost[0]);
    EXPECT_LE(rec.chosen_cost, rec.broadcast_cost[1]);
  }
}

TEST(ScheduleExplainTest, BalancedFourPhaseKeepsExactTraffic) {
  // Balance-aware scheduling only re-spends traffic-free degrees of
  // freedom, so the audit must still reconcile exactly.
  Workload w = SpreadWorkload();
  ScheduleExplain e =
      RunAudited(w, TrackJoinVersion::k4Phase, true, "4tj-balance");
  EXPECT_EQ(e.total_keys, 200u);
  ExpectExact(e);
}

TEST(ScheduleExplainTest, SavedVsHashIsHashMinusScheduled) {
  Workload w = SpreadWorkload();
  ScheduleExplain e = RunAudited(w, TrackJoinVersion::k4Phase, false, "4tj");
  EXPECT_EQ(e.saved_vs_hash_bytes,
            static_cast<int64_t>(e.hash_join_bytes) -
                static_cast<int64_t>(e.scheduled_bytes));
  // Track join's whole point on this workload: beat the hash join.
  EXPECT_GT(e.saved_vs_hash_bytes, 0);
}

TEST(ScheduleExplainTest, JsonAndTableRenderTotals) {
  Workload w = SpreadWorkload();
  ScheduleExplain e = RunAudited(w, TrackJoinVersion::k4Phase, false, "4tj");
  std::string json = ToJson(e);
  EXPECT_NE(json.find("\"algorithm\": \"4tj\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"matches_traffic\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"migrated\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"top_keys\": ["), std::string::npos) << json;
  std::string table = ToTable(e);
  EXPECT_NE(table.find("EXPLAIN 4tj"), std::string::npos) << table;
  EXPECT_NE(table.find("exact match"), std::string::npos) << table;
}

TEST(ScheduleExplainTest, HotSplitClassReconcilesExactly) {
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
  ScheduleAuditLog audit;
  config.schedule_audit = &audit;
  Result<JoinResult> run =
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ScheduleExplain e =
      BuildScheduleExplain("4tj", audit, run.value().traffic, /*top_k=*/5);
  // Split keys exist, their class carries bytes, and the per-key audit
  // still reconciles byte-for-byte against the run's traffic matrix —
  // the hot plan's modeled cost must equal what actually hit the wire.
  const auto& hot = e.by_class[static_cast<int>(ScheduleClass::kHotSplit)];
  EXPECT_GT(hot.keys, 0u);
  EXPECT_GT(hot.bytes, 0u);
  ExpectExact(e);
  // The head keys are the split ones, and the renderers surface them.
  ASSERT_FALSE(e.top.empty());
  EXPECT_GT(e.top[0].chosen_split, 0u);
  EXPECT_NE(ToJson(e).find("\"hot_split\""), std::string::npos);
  EXPECT_NE(ToTable(e).find("hot_split"), std::string::npos);
}

TEST(ScheduleExplainTest, TopKeysDeterministicUnderCostTies) {
  // Records with identical costs must surface in key order regardless of
  // insertion order, so two runs of the same audit render identically.
  for (int top_k : {3, 7}) {
    ScheduleAuditLog forward, backward;
    forward.Reset(1);
    backward.Reset(1);
    std::vector<uint64_t> keys = {11, 3, 42, 27, 8, 19, 5};
    KeyScheduleAudit a;
    a.chosen_cost = 500;  // All tied.
    a.chosen_dir = Direction::kRtoS;
    for (uint64_t k : keys) {
      a.key = k;
      forward.Record(0, a);
    }
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      a.key = *it;
      backward.Record(0, a);
    }
    TrafficMatrix traffic(1);
    ScheduleExplain f = BuildScheduleExplain("t", forward, traffic, top_k);
    ScheduleExplain b = BuildScheduleExplain("t", backward, traffic, top_k);
    ASSERT_EQ(f.top.size(), std::min<size_t>(top_k, keys.size()));
    for (size_t i = 0; i + 1 < f.top.size(); ++i) {
      EXPECT_LT(f.top[i].key, f.top[i + 1].key);  // Ties break by key.
    }
    EXPECT_EQ(ToJson(f), ToJson(b));
    EXPECT_EQ(ToTable(f), ToTable(b));
  }
}

TEST(ScheduleExplainTest, RepeatedRunsRenderIdentically) {
  // Regression: run the same audited join twice end to end; the rendered
  // EXPLAIN (including --explain-top ordering) must be byte-identical.
  Workload w = SpreadWorkload();
  ScheduleExplain a = RunAudited(w, TrackJoinVersion::k4Phase, false, "4tj");
  ScheduleExplain b = RunAudited(w, TrackJoinVersion::k4Phase, false, "4tj");
  EXPECT_EQ(ToJson(a), ToJson(b));
  EXPECT_EQ(ToTable(a), ToTable(b));
}

TEST(ScheduleExplainTest, HostileAlgorithmNameIsEscapedInJson) {
  ScheduleAuditLog log;
  log.Reset(1);
  TrafficMatrix traffic(1);
  ScheduleExplain e =
      BuildScheduleExplain("a\"b\nc", log, traffic, /*top_k=*/3);
  std::string json = ToJson(e);
  EXPECT_NE(json.find("\"a\\\"b\\nc\""), std::string::npos) << json;
}

}  // namespace
}  // namespace tj
