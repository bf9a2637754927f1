#include "baseline/broadcast_join.h"

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

TEST(BroadcastJoinTest, CorrectOutputBothDirections) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 300;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 2;
  Workload w = GenerateWorkload(spec);
  JoinResult r = ValueOrDie(TryRunBroadcastJoin(w.r, w.s, TestConfig(),
                                                Direction::kRtoS));
  JoinResult s = ValueOrDie(TryRunBroadcastJoin(w.r, w.s, TestConfig(),
                                                Direction::kStoR));
  EXPECT_EQ(r.output_rows, w.expected_output_rows);
  EXPECT_EQ(s.output_rows, w.expected_output_rows);
  EXPECT_EQ(r.checksum.digest(), s.checksum.digest());
}

TEST(BroadcastJoinTest, TrafficIsNMinusOneTimesTable) {
  WorkloadSpec spec;
  spec.num_nodes = 6;
  spec.matched_keys = 1000;
  spec.r_payload = 16;
  spec.s_payload = 56;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();

  JoinResult r = ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config,
                                                Direction::kRtoS));
  uint64_t expected_r =
      w.r.TotalRows() * (config.key_bytes + spec.r_payload) * (6 - 1);
  EXPECT_EQ(r.traffic.TotalNetworkBytes(), expected_r);
  EXPECT_EQ(r.traffic.NetworkBytes(TrafficClass::kSTuples), 0u);

  JoinResult s = ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config,
                                                Direction::kStoR));
  uint64_t expected_s =
      w.s.TotalRows() * (config.key_bytes + spec.s_payload) * (6 - 1);
  EXPECT_EQ(s.traffic.TotalNetworkBytes(), expected_s);
  EXPECT_EQ(s.traffic.NetworkBytes(TrafficClass::kRTuples), 0u);
}

TEST(BroadcastJoinTest, SingleNodeIsFree) {
  WorkloadSpec spec;
  spec.num_nodes = 1;
  spec.matched_keys = 50;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunBroadcastJoin(w.r, w.s, TestConfig(),
                                                     Direction::kRtoS));
  EXPECT_EQ(result.output_rows, 50u);
  EXPECT_EQ(result.traffic.TotalNetworkBytes(), 0u);
}

TEST(BroadcastJoinTest, EmptyMovingTable) {
  PartitionedTable r("R", 3, 4);
  WorkloadSpec spec;
  spec.num_nodes = 3;
  spec.matched_keys = 10;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunBroadcastJoin(r, w.s, TestConfig(),
                                                     Direction::kRtoS));
  EXPECT_EQ(result.output_rows, 0u);
  EXPECT_EQ(result.traffic.TotalNetworkBytes(), 0u);
}

}  // namespace
}  // namespace tj
