#include "core/recovery.h"

#include <gtest/gtest.h>

#include <vector>

#include "baseline/hash_join.h"
#include "core/schedule.h"
#include "core/track_join.h"
#include "obs/explain.h"
#include "workload/generator.h"

namespace tj {
namespace {

Workload MakeWorkload(uint32_t nodes) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = 500;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_unmatched = 100;
  spec.s_unmatched = 100;
  spec.seed = 77;
  return GenerateWorkload(spec);
}

JoinRunner TrackJoin3Runner() {
  return [](const PartitionedTable& r, const PartitionedTable& s,
            const JoinConfig& cfg) {
    return TryRunTrackJoin(r, s, cfg, TrackJoinVersion::k3Phase);
  };
}

TEST(RecoveryTest, PristineRunIsByteIdentical) {
  Workload w = MakeWorkload(6);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  JoinConfig config;
  config.key_bytes = 4;

  Result<JoinResult> plain = TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k3Phase);
  ASSERT_TRUE(plain.ok());

  RecoveryReport report;
  Result<JoinResult> managed = RunWithRecovery(rw.r, rw.s, config, {},
                                               TrackJoin3Runner(), &report);
  ASSERT_TRUE(managed.ok());
  // A failure-free managed run is indistinguishable from an unmanaged one.
  EXPECT_EQ(managed->checksum.digest(), plain->checksum.digest());
  EXPECT_TRUE(managed->traffic == plain->traffic);
  EXPECT_EQ(managed->traffic.TotalRecoveryBytes(), 0u);
  EXPECT_EQ(managed->profile.recovery_bytes, 0u);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.failovers, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.recovery_seconds, 0.0);
}

TEST(RecoveryTest, CrashFailoverMatchesPristineChecksum) {
  Workload w = MakeWorkload(6);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  JoinConfig pristine;
  pristine.key_bytes = 4;
  Result<JoinResult> plain = TryRunTrackJoin(w.r, w.s, pristine,
                                             TrackJoinVersion::k3Phase);
  ASSERT_TRUE(plain.ok());

  FaultPolicy policy;
  policy.crash_node = 2;
  policy.crash_phase = 1;
  JoinConfig config = pristine;
  config.fault_policy = &policy;
  config.fault_seed = 7;

  RecoveryReport report;
  Result<JoinResult> run = RunWithRecovery(rw.r, rw.s, config, {},
                                           TrackJoin3Runner(), &report);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Replicas are views of the same synthesized rows, so the degraded run
  // joins exactly the same multiset of tuples.
  EXPECT_EQ(run->output_rows, plain->output_rows);
  EXPECT_EQ(run->checksum.digest(), plain->checksum.digest());
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.failovers, 1u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.dead_nodes, (std::vector<uint32_t>{2}));
  // Accounting stays in the original 6-node coordinate system; the failed
  // attempt's bytes land on the recovery ledger and nowhere else.
  EXPECT_EQ(run->traffic.num_nodes(), 6u);
  EXPECT_EQ(run->traffic.TotalRecoveryBytes(), report.recovery_bytes);
  EXPECT_EQ(run->profile.recovery_bytes, report.recovery_bytes);
  // The dead node serves no traffic in the successful attempt: only the
  // recovery ledger may name it as a source.
  EXPECT_EQ(run->traffic.EgressBytes(2), 0u);
  EXPECT_EQ(run->traffic.IngressBytes(2), 0u);
}

// Recovery latency is modeled, not measured: one seeded crash-and-failover
// run twice reports the same attempts, bytes and seconds to the bit.
TEST(RecoveryTest, SeededFailoverReportIsReproducible) {
  Workload w = MakeWorkload(6);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  FaultPolicy policy;
  policy.crash_node = 2;
  policy.crash_phase = 3;
  JoinConfig config;
  config.key_bytes = 4;
  config.fault_policy = &policy;
  config.fault_seed = 7;

  RecoveryReport reports[2];
  for (RecoveryReport& report : reports) {
    ASSERT_TRUE(
        RunWithRecovery(rw.r, rw.s, config, {}, TrackJoin3Runner(), &report)
            .ok());
  }
  EXPECT_EQ(reports[0].failovers, 1u);
  EXPECT_GT(reports[0].wasted_seconds, 0.0);
  EXPECT_EQ(reports[0].attempts, reports[1].attempts);
  EXPECT_EQ(reports[0].failovers, reports[1].failovers);
  EXPECT_EQ(reports[0].retries, reports[1].retries);
  EXPECT_EQ(reports[0].dead_nodes, reports[1].dead_nodes);
  EXPECT_EQ(reports[0].wasted_seconds, reports[1].wasted_seconds);
  EXPECT_EQ(reports[0].backoff_seconds, reports[1].backoff_seconds);
  EXPECT_EQ(reports[0].recovery_seconds, reports[1].recovery_seconds);
  EXPECT_EQ(reports[0].recovery_bytes, reports[1].recovery_bytes);
}

TEST(RecoveryTest, DeadlinePromotesStragglerAndFailsOver) {
  Workload w = MakeWorkload(5);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  JoinConfig pristine;
  pristine.key_bytes = 4;
  Result<JoinResult> plain = TryRunHashJoin(w.r, w.s, pristine);
  ASSERT_TRUE(plain.ok());

  FaultPolicy policy;
  policy.slow_node = 1;
  policy.slowdown_seconds = 5.0;
  JoinConfig config = pristine;
  config.fault_policy = &policy;
  config.fault_seed = 3;
  config.phase_deadline_seconds = 1.0;

  RecoveryOptions options;
  RecoveryReport report;
  Result<JoinResult> run = RunWithRecovery(
      rw.r, rw.s, config, options,
      [](const PartitionedTable& r, const PartitionedTable& s,
         const JoinConfig& cfg) { return TryRunHashJoin(r, s, cfg); },
      &report);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->checksum.digest(), plain->checksum.digest());
  EXPECT_EQ(report.failovers, 1u);
  EXPECT_EQ(report.dead_nodes, (std::vector<uint32_t>{1}));
  // The straggled phase's modeled time (slowdown included) was wasted.
  EXPECT_GT(report.wasted_seconds, 5.0);
  EXPECT_EQ(report.recovery_seconds,
            report.wasted_seconds + report.backoff_seconds);
}

TEST(RecoveryTest, TransientFailuresBackOffExponentially) {
  Workload w = MakeWorkload(4);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  JoinConfig config;
  config.key_bytes = 4;

  int calls = 0;
  JoinRunner flaky = [&](const PartitionedTable& r, const PartitionedTable& s,
                         const JoinConfig& cfg) -> Result<JoinResult> {
    if (++calls <= 2) return Status::DataLoss("synthetic transient loss");
    return TryRunHashJoin(r, s, cfg);
  };

  RecoveryOptions options;
  options.backoff_initial_seconds = 0.25;
  options.backoff_multiplier = 2.0;
  RecoveryReport report;
  Result<JoinResult> run =
      RunWithRecovery(rw.r, rw.s, config, options, flaky, &report);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.failovers, 0u);
  // 0.25 then 0.5: the ladder doubles per consecutive transient retry.
  EXPECT_DOUBLE_EQ(report.backoff_seconds, 0.75);
}

TEST(RecoveryTest, BudgetExhaustionIsTypedUnavailable) {
  Workload w = MakeWorkload(4);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  JoinConfig config;
  config.key_bytes = 4;

  JoinRunner doomed = [](const PartitionedTable&, const PartitionedTable&,
                         const JoinConfig&) -> Result<JoinResult> {
    return Status::DataLoss("synthetic unrecoverable loss");
  };
  RecoveryOptions options;
  options.max_attempts = 3;
  RecoveryReport report;
  Result<JoinResult> run =
      RunWithRecovery(rw.r, rw.s, config, options, doomed, &report);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(run.status().ToString().find("recovery budget exhausted"),
            std::string::npos);
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_EQ(report.retries, 2u);
}

TEST(RecoveryTest, NonFaultErrorsPropagateImmediately) {
  Workload w = MakeWorkload(4);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  JoinConfig config;
  int calls = 0;
  JoinRunner broken = [&](const PartitionedTable&, const PartitionedTable&,
                          const JoinConfig&) -> Result<JoinResult> {
    ++calls;
    return Status::InvalidArgument("bad config");
  };
  Result<JoinResult> run = RunWithRecovery(rw.r, rw.s, config, {}, broken);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);  // Retrying a usage error would only mask it.
}

TEST(RecoveryTest, UnreplicatedCrashIsUnavailable) {
  Workload w = MakeWorkload(4);
  ReplicatedWorkload rw = ReplicateWorkload(w, 1);  // k=1: nothing to fail to.
  FaultPolicy policy;
  policy.crash_node = 0;
  JoinConfig config;
  config.key_bytes = 4;
  config.fault_policy = &policy;

  RecoveryReport report;
  Result<JoinResult> run = RunWithRecovery(
      rw.r, rw.s, config, {},
      [](const PartitionedTable& r, const PartitionedTable& s,
         const JoinConfig& cfg) { return TryRunHashJoin(r, s, cfg); },
      &report);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
}

TEST(RecoveryTest, FailoverKeysTaggedInExplainAndReconciled) {
  Workload w = MakeWorkload(6);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  FaultPolicy policy;
  policy.crash_node = 3;
  policy.crash_phase = 1;
  ScheduleAuditLog audit;
  JoinConfig config;
  config.key_bytes = 4;
  config.fault_policy = &policy;
  config.fault_seed = 11;
  config.schedule_audit = &audit;

  RecoveryReport report;
  Result<JoinResult> run = RunWithRecovery(
      rw.r, rw.s, config, {},
      [](const PartitionedTable& r, const PartitionedTable& s,
         const JoinConfig& cfg) {
        return TryRunTrackJoin(r, s, cfg, TrackJoinVersion::k4Phase);
      },
      &report);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(report.failovers, 1u);

  ScheduleExplain explain =
      BuildScheduleExplain("4tj", audit, run->traffic, 10);
  const auto& failover =
      explain.by_class[static_cast<int>(ScheduleClass::kFailover)];
  // Node 3 held rows, so some keys were re-homed and re-tagged.
  EXPECT_GT(failover.keys, 0u);
  // Re-tagging only moves keys between classes; the audit still reconciles
  // byte-for-byte against the (remapped) traffic matrix.
  EXPECT_TRUE(explain.matches_traffic);
}

}  // namespace
}  // namespace tj
