#include "core/semi_join.h"

#include <gtest/gtest.h>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "workload/generator.h"

namespace tj {
namespace {

JoinConfig TestConfig() {
  JoinConfig config;
  config.key_bytes = 4;
  return config;
}

WorkloadSpec SelectiveSpec() {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 200;
  spec.r_unmatched = 2000;  // 10% selectivity on R.
  spec.s_unmatched = 2000;
  spec.r_payload = 12;
  spec.s_payload = 24;
  return spec;
}

TEST(SemiJoinTest, PruningNeverDropsMatches) {
  Workload w = GenerateWorkload(SelectiveSpec());
  SemiJoinConfig semi;
  FilteredInputs pre = ValueOrDie(ExchangeFiltersAndPrune(w.r, w.s, semi));
  // All matched rows survive.
  EXPECT_GE(pre.r.TotalRows(), 200u);
  EXPECT_GE(pre.s.TotalRows(), 200u);
  // Most unmatched rows are pruned at 10 bits/key.
  EXPECT_GT(pre.r_rows_pruned, 1800u);
  EXPECT_GT(pre.s_rows_pruned, 1800u);
  EXPECT_EQ(pre.r.TotalRows() + pre.r_rows_pruned, w.r.TotalRows());
}

TEST(SemiJoinTest, FilteredHashJoinCorrect) {
  Workload w = GenerateWorkload(SelectiveSpec());
  JoinResult plain = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  JoinResult filtered = ValueOrDie(TryRunFilteredHashJoin(w.r, w.s,
                                                          TestConfig(), {}));
  EXPECT_EQ(filtered.output_rows, plain.output_rows);
  EXPECT_EQ(filtered.checksum.digest(), plain.checksum.digest());
}

TEST(SemiJoinTest, FilteredTrackJoinCorrectAllVersions) {
  Workload w = GenerateWorkload(SelectiveSpec());
  JoinResult plain = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  for (auto version : {TrackJoinVersion::k2Phase, TrackJoinVersion::k3Phase,
                       TrackJoinVersion::k4Phase}) {
    JoinResult filtered = ValueOrDie(TryRunFilteredTrackJoin(w.r, w.s,
                                                             TestConfig(), {},
                                                             version));
    EXPECT_EQ(filtered.output_rows, plain.output_rows);
    EXPECT_EQ(filtered.checksum.digest(), plain.checksum.digest());
  }
}

TEST(SemiJoinTest, FilteringShrinksHashJoinTupleTraffic) {
  Workload w = GenerateWorkload(SelectiveSpec());
  JoinResult plain = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  JoinResult filtered = ValueOrDie(TryRunFilteredHashJoin(w.r, w.s,
                                                          TestConfig(), {}));
  uint64_t plain_tuples = plain.traffic.NetworkBytes(TrafficClass::kRTuples) +
                          plain.traffic.NetworkBytes(TrafficClass::kSTuples);
  uint64_t filtered_tuples =
      filtered.traffic.NetworkBytes(TrafficClass::kRTuples) +
      filtered.traffic.NetworkBytes(TrafficClass::kSTuples);
  EXPECT_LT(filtered_tuples, plain_tuples / 5);
  EXPECT_GT(filtered.traffic.NetworkBytes(TrafficClass::kFilter), 0u);
}

TEST(SemiJoinTest, TrackJoinTrackingShrinksButTuplesUnchanged) {
  // Track join already ships only matching tuples; Bloom filtering can
  // only thin the tracking phase.
  Workload w = GenerateWorkload(SelectiveSpec());
  JoinConfig config = TestConfig();
  JoinResult plain = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
  JoinResult filtered = ValueOrDie(TryRunFilteredTrackJoin(
      w.r, w.s, config, {}, TrackJoinVersion::k4Phase));
  EXPECT_LT(filtered.traffic.NetworkBytes(TrafficClass::kKeysAndCounts),
            plain.traffic.NetworkBytes(TrafficClass::kKeysAndCounts));
  // Tuple traffic identical up to Bloom false positives (which never add
  // tuples — only tracking entries).
  EXPECT_EQ(filtered.traffic.NetworkBytes(TrafficClass::kRTuples),
            plain.traffic.NetworkBytes(TrafficClass::kRTuples));
  EXPECT_EQ(filtered.traffic.NetworkBytes(TrafficClass::kSTuples),
            plain.traffic.NetworkBytes(TrafficClass::kSTuples));
}

TEST(SemiJoinTest, ProfileBottleneckIsTheMergedMatrix) {
  // The filter broadcast and the inner join stress different NICs, so the
  // merged run's bottleneck is not the larger of the two runs' bottlenecks.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 2000;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_unmatched = 3000;
  spec.s_unmatched = 3000;
  Workload w = GenerateWorkload(spec);
  JoinResult hj =
      ValueOrDie(TryRunFilteredHashJoin(w.r, w.s, TestConfig(), {}));
  EXPECT_EQ(hj.profile.run_max_node_bytes, hj.traffic.MaxNodeBytes());
  JoinResult tj = ValueOrDie(TryRunFilteredTrackJoin(
      w.r, w.s, TestConfig(), {}, TrackJoinVersion::k4Phase));
  EXPECT_EQ(tj.profile.run_max_node_bytes, tj.traffic.MaxNodeBytes());
}

TEST(SemiJoinTest, NonSelectiveInputsGainNothing) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 500;
  Workload w = GenerateWorkload(spec);
  FilteredInputs pre = ValueOrDie(ExchangeFiltersAndPrune(w.r, w.s, {}));
  EXPECT_EQ(pre.r_rows_pruned, 0u);
  EXPECT_EQ(pre.s_rows_pruned, 0u);
  EXPECT_GT(pre.filter_traffic.NetworkBytes(TrafficClass::kFilter), 0u);
}

}  // namespace
}  // namespace tj
