#include "core/key_column_join.h"

#include <gtest/gtest.h>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/track_join.h"
#include "costmodel/network_cost.h"
#include "workload/generator.h"

namespace tj {
namespace {

JoinConfig TestConfig() {
  JoinConfig config;
  config.key_bytes = 4;
  return config;
}

TEST(LateHashJoinTest, MatchesHashJoinOutput) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 300;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 8;
  spec.s_payload = 24;
  spec.r_unmatched = 120;
  spec.s_unmatched = 80;
  Workload w = GenerateWorkload(spec);
  JoinResult reference = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  JoinResult late = ValueOrDie(TryRunLateMaterializedHashJoin(w.r, w.s,
                                                              TestConfig()));
  EXPECT_EQ(late.output_rows, reference.output_rows);
  EXPECT_EQ(late.checksum.digest(), reference.checksum.digest());
}

TEST(LateHashJoinTest, FetchTrafficScalesWithOutput) {
  // Doubling both multiplicities quadruples the output and thus the
  // payload-fetch traffic (keys traffic stays fixed).
  auto tuple_bytes = [](const JoinResult& r) {
    return r.traffic.NetworkBytes(TrafficClass::kRTuples) +
           r.traffic.NetworkBytes(TrafficClass::kSTuples);
  };
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 400;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 2;
  spec.r_payload = 16;
  spec.s_payload = 16;
  Workload small = GenerateWorkload(spec);
  spec.r_multiplicity = 4;
  spec.s_multiplicity = 4;
  Workload big = GenerateWorkload(spec);

  JoinResult small_run = ValueOrDie(
      TryRunLateMaterializedHashJoin(small.r, small.s, TestConfig()));
  JoinResult big_run = ValueOrDie(TryRunLateMaterializedHashJoin(big.r, big.s,
                                                                 TestConfig()));
  EXPECT_EQ(big_run.output_rows, small_run.output_rows * 4);
  double ratio = static_cast<double>(tuple_bytes(big_run)) /
                 static_cast<double>(tuple_bytes(small_run));
  EXPECT_NEAR(ratio, 4.0, 0.3);
}

TEST(LateHashJoinTest, TracksAnalyticCost) {
  WorkloadSpec spec;
  spec.num_nodes = 16;
  spec.matched_keys = 2000;
  spec.r_payload = 12;
  spec.s_payload = 40;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();
  JoinResult run = ValueOrDie(TryRunLateMaterializedHashJoin(w.r, w.s, config));

  JoinStats stats;
  stats.num_nodes = 16;
  stats.t_r = 2000;
  stats.t_s = 2000;
  stats.d_r = 2000;
  stats.d_s = 2000;
  stats.w_k = 4;
  stats.w_r = 12;
  stats.w_s = 40;
  stats.t_rs = 2000;
  double model = LateMaterializedHashJoinCost(stats);
  double measured = static_cast<double>(run.traffic.TotalNetworkBytes());
  // The formula drops the (1-1/N) in-place factors and models rid widths
  // as log(t); agree within 20%.
  EXPECT_NEAR(measured / model, 1.0, 0.2);
}

TEST(LateHashJoinTest, OutputBlowupHurtsLateMaterialization) {
  // Workload-Y-shaped: output 9x the per-table input. Early-materialized
  // hash join ships every tuple once; late materialization re-fetches per
  // output pair and must lose badly.
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 200;
  spec.r_multiplicity = 3;
  spec.s_multiplicity = 9;
  spec.r_payload = 33;
  spec.s_payload = 43;
  Workload w = GenerateWorkload(spec);
  JoinResult early = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  JoinResult late = ValueOrDie(TryRunLateMaterializedHashJoin(w.r, w.s,
                                                              TestConfig()));
  EXPECT_EQ(late.checksum.digest(), early.checksum.digest());
  EXPECT_GT(late.traffic.TotalNetworkBytes(),
            2 * early.traffic.TotalNetworkBytes());
}

TEST(LateHashJoinTest, EmptyAndKeyOnlyInputs) {
  PartitionedTable r("R", 3, 4), s("S", 3, 8);
  EXPECT_EQ(
      ValueOrDie(TryRunLateMaterializedHashJoin(r, s, TestConfig())).output_rows,
      0u);

  WorkloadSpec spec;
  spec.num_nodes = 3;
  spec.matched_keys = 100;
  spec.r_payload = 0;
  spec.s_payload = 0;
  Workload w = GenerateWorkload(spec);
  JoinResult run = ValueOrDie(TryRunLateMaterializedHashJoin(w.r, w.s,
                                                             TestConfig()));
  EXPECT_EQ(run.output_rows, 100u);
}

}  // namespace
}  // namespace tj
