#include "costmodel/class_estimator.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/track_join.h"
#include "workload/generator.h"

namespace tj {
namespace {

JoinConfig TestConfig() {
  JoinConfig config;
  config.key_bytes = 4;
  return config;
}

uint64_t ScheduleBytes(const JoinResult& result) {
  return result.traffic.NetworkBytes(TrafficClass::kKeysAndNodes) +
         result.traffic.NetworkBytes(TrafficClass::kRTuples) +
         result.traffic.NetworkBytes(TrafficClass::kSTuples);
}

TEST(ClassEstimatorTest, FullSampleIsExact) {
  WorkloadSpec spec;
  spec.num_nodes = 5;
  spec.matched_keys = 400;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 10;
  spec.s_payload = 20;
  spec.r_unmatched = 100;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();

  ClassEstimate estimate = EstimateClasses(w.r, w.s, config, 1.0);
  JoinResult run = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                              TrackJoinVersion::k4Phase));
  EXPECT_DOUBLE_EQ(estimate.schedule_bytes,
                   static_cast<double>(ScheduleBytes(run)));
  EXPECT_EQ(estimate.sampled_keys, 400u);
  EXPECT_DOUBLE_EQ(estimate.matched_keys, 400.0);
}

TEST(ClassEstimatorTest, UniqueKeysNarrowRGoRtoS) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 1000;
  spec.r_payload = 4;
  spec.s_payload = 48;
  Workload w = GenerateWorkload(spec);
  ClassEstimate estimate = EstimateClasses(w.r, w.s, TestConfig(), 1.0);
  EXPECT_GT(estimate.classes.rs, 0.95);
  EXPECT_LT(estimate.classes.hash, 0.05);
}

TEST(ClassEstimatorTest, FlippedWidthsGoStoR) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 1000;
  spec.r_payload = 48;
  spec.s_payload = 4;
  Workload w = GenerateWorkload(spec);
  ClassEstimate estimate = EstimateClasses(w.r, w.s, TestConfig(), 1.0);
  // ~1/N of the keys are collocated singletons whose directions tie (and
  // tie toward R->S); everything else must pick S->R.
  EXPECT_GT(estimate.classes.sr, 0.8);
  EXPECT_LT(estimate.classes.rs, 0.2);
  EXPECT_LT(estimate.classes.hash, 0.05);
}

TEST(ClassEstimatorTest, ScatteredRepeatsProduceHashClass) {
  // Equal-width heavy repeats scattered over all nodes consolidate to a
  // single node (all but one target location migrates) — the hash-like
  // class the paper's 4-phase cost formula includes.
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 300;
  spec.r_multiplicity = 8;
  spec.s_multiplicity = 8;
  spec.r_payload = 16;
  spec.s_payload = 16;
  spec.collocation = Collocation::kRandom;
  Workload w = GenerateWorkload(spec);
  ClassEstimate estimate = EstimateClasses(w.r, w.s, TestConfig(), 1.0);
  EXPECT_GT(estimate.classes.hash, 0.5);
}

TEST(ClassEstimatorTest, SamplingApproximatesFullEstimate) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 20000;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 12;
  spec.s_payload = 28;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();
  ClassEstimate full = EstimateClasses(w.r, w.s, config, 1.0);
  ClassEstimate sampled = EstimateClasses(w.r, w.s, config, 0.1, /*seed=*/7);
  EXPECT_NEAR(sampled.sampled_keys / 2000.0, 1.0, 0.15);
  EXPECT_NEAR(sampled.schedule_bytes / full.schedule_bytes, 1.0, 0.1);
  EXPECT_NEAR(sampled.matched_keys / full.matched_keys, 1.0, 0.15);
  EXPECT_NEAR(sampled.classes.rs, full.classes.rs, 0.1);
}

TEST(ClassEstimatorTest, SamplingIsCorrelatedAcrossTables) {
  // A sampled key must come with BOTH sides' entries, or matched keys
  // would be undercounted quadratically. With matched-only inputs the
  // extrapolated matched-key count must track the truth.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 50000;
  Workload w = GenerateWorkload(spec);
  ClassEstimate estimate = EstimateClasses(w.r, w.s, TestConfig(), 0.05, 3);
  EXPECT_NEAR(estimate.matched_keys / 50000.0, 1.0, 0.1);
}

TEST(ClassEstimatorTest, NoMatchesMeansEmptyEstimate) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 0;
  spec.r_unmatched = 500;
  spec.s_unmatched = 500;
  Workload w = GenerateWorkload(spec);
  ClassEstimate estimate = EstimateClasses(w.r, w.s, TestConfig(), 1.0);
  EXPECT_EQ(estimate.sampled_keys, 0u);
  EXPECT_DOUBLE_EQ(estimate.schedule_bytes, 0.0);
  EXPECT_DOUBLE_EQ(estimate.classes.rs + estimate.classes.sr +
                       estimate.classes.hash,
                   0.0);
}

}  // namespace
}  // namespace tj
