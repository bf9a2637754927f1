#include "baseline/hash_join.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "workload/generator.h"

namespace tj {
namespace {

JoinConfig TestConfig() {
  JoinConfig config;
  config.key_bytes = 4;
  return config;
}

TEST(HashJoinTest, JoinsCorrectCardinality) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 500;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  EXPECT_EQ(result.output_rows, w.expected_output_rows);
  EXPECT_EQ(result.checksum.count(), w.expected_output_rows);
}

TEST(HashJoinTest, TrafficIsAboutOneMinusOneOverN) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 4000;
  spec.r_payload = 12;
  spec.s_payload = 28;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, config));

  double full_r = w.r.TotalRows() * (config.key_bytes + spec.r_payload);
  double full_s = w.s.TotalRows() * (config.key_bytes + spec.s_payload);
  double expected = (full_r + full_s) * (1.0 - 1.0 / spec.num_nodes);
  double measured = static_cast<double>(result.traffic.TotalNetworkBytes());
  EXPECT_NEAR(measured, expected, expected * 0.05);
  // Hash join never sends tracking or location messages.
  EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kKeysAndCounts), 0u);
  EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kKeysAndNodes), 0u);
}

TEST(HashJoinTest, PlacementInvariant) {
  // Hash join traffic is (statistically) identical before and after
  // shuffling: pre-existing locality cannot help it.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 2000;
  spec.r_pattern = {1};
  spec.s_pattern = {1};
  spec.collocation = Collocation::kInter;  // Full locality.
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();

  JoinResult before = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
  ShuffleTable(&w.r, 1);
  ShuffleTable(&w.s, 2);
  JoinResult after = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
  EXPECT_EQ(before.output_rows, after.output_rows);
  EXPECT_EQ(before.checksum.digest(), after.checksum.digest());
  double b = static_cast<double>(before.traffic.TotalNetworkBytes());
  double a = static_cast<double>(after.traffic.TotalNetworkBytes());
  EXPECT_NEAR(a, b, b * 0.05);
}

TEST(HashJoinTest, SingleNodeHasNoNetworkTraffic) {
  WorkloadSpec spec;
  spec.num_nodes = 1;
  spec.matched_keys = 100;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  EXPECT_EQ(result.output_rows, 100u);
  EXPECT_EQ(result.traffic.TotalNetworkBytes(), 0u);
  EXPECT_GT(result.traffic.TotalLocalBytes(), 0u);
}

TEST(HashJoinTest, EmptyInputs) {
  PartitionedTable r("R", 3, 4), s("S", 3, 4);
  JoinResult result = ValueOrDie(TryRunHashJoin(r, s, TestConfig()));
  EXPECT_EQ(result.output_rows, 0u);
  EXPECT_EQ(result.traffic.TotalNetworkBytes(), 0u);
}

TEST(HashJoinTest, StepBreakdownNames) {
  WorkloadSpec spec;
  spec.matched_keys = 20;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  ASSERT_EQ(result.phase_seconds.size(), 5u);
  EXPECT_EQ(result.phase_seconds[0].first, "hash partition & transfer R tuples");
  EXPECT_EQ(result.phase_seconds[4].first, "final merge-join");
}

}  // namespace
}  // namespace tj
