#include "core/key_column_join.h"

#include <gtest/gtest.h>

#include "baseline/hash_join.h"
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

TEST(RidHashJoinTest, MatchesHashJoinOutput) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 300;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 8;
  spec.s_payload = 24;
  spec.r_unmatched = 100;
  spec.s_unmatched = 100;
  Workload w = GenerateWorkload(spec);
  JoinResult reference = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  JoinResult rid = ValueOrDie(TryRunRidHashJoin(w.r, w.s, TestConfig()));
  EXPECT_EQ(rid.output_rows, reference.output_rows);
  EXPECT_EQ(rid.checksum.digest(), reference.checksum.digest());
}

TEST(RidHashJoinTest, OnlyNarrowPayloadsTravel) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 500;
  spec.r_payload = 40;  // Wide: execution stays at R.
  spec.s_payload = 4;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunRidHashJoin(w.r, w.s, TestConfig()));
  EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kRTuples), 0u);
  EXPECT_GT(result.traffic.NetworkBytes(TrafficClass::kSTuples), 0u);
}

TEST(RidHashJoinTest, BeatsPlainHashJoinOnWidePayloads) {
  // With wide exec-side payloads and selective inputs, returning rids and
  // shipping only the narrow side must transfer less than full hash join.
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 500;
  spec.r_payload = 60;
  spec.s_payload = 8;
  spec.r_unmatched = 2000;  // Hash join pays full freight for these.
  spec.s_unmatched = 2000;
  Workload w = GenerateWorkload(spec);
  JoinResult rid = ValueOrDie(TryRunRidHashJoin(w.r, w.s, TestConfig()));
  JoinResult plain = ValueOrDie(TryRunHashJoin(w.r, w.s, TestConfig()));
  EXPECT_LT(rid.traffic.TotalNetworkBytes(), plain.traffic.TotalNetworkBytes());
}

TEST(RidHashJoinTest, SubsumedByTwoPhaseTrackJoin) {
  // Section 3.2's theorem: 2TJ (shipping the narrow side) transfers less
  // than the rid-based tracking-aware hash join — tracking sends distinct
  // keys where rid-HJ sends the full key column plus rids.
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 800;
  spec.r_payload = 8;   // Narrow side ships in both algorithms.
  spec.s_payload = 48;
  spec.r_unmatched = 400;
  spec.s_unmatched = 400;
  Workload w = GenerateWorkload(spec);
  JoinResult rid = ValueOrDie(TryRunRidHashJoin(w.r, w.s, TestConfig()));
  JoinResult tj2 = ValueOrDie(TryRunTrackJoin(w.r, w.s, TestConfig(),
                                              TrackJoinVersion::k2Phase,
                                              Direction::kRtoS));
  EXPECT_EQ(rid.checksum.digest(), tj2.checksum.digest());
  EXPECT_LT(tj2.traffic.TotalNetworkBytes(), rid.traffic.TotalNetworkBytes());
}

TEST(RidHashJoinTest, EmptyAndUnmatchedInputs) {
  PartitionedTable r("R", 3, 4), s("S", 3, 8);
  JoinResult empty = ValueOrDie(TryRunRidHashJoin(r, s, TestConfig()));
  EXPECT_EQ(empty.output_rows, 0u);

  WorkloadSpec spec;
  spec.num_nodes = 3;
  spec.matched_keys = 0;
  spec.r_unmatched = 200;
  spec.s_unmatched = 200;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunRidHashJoin(w.r, w.s, TestConfig()));
  EXPECT_EQ(result.output_rows, 0u);
  // Keys travel; no tuples do.
  EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kRTuples), 0u);
  EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kSTuples), 0u);
}

TEST(RidHashJoinTest, DuplicateKeysOnBothSides) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 50;
  spec.r_multiplicity = 4;
  spec.s_multiplicity = 6;
  Workload w = GenerateWorkload(spec);
  JoinResult rid = ValueOrDie(TryRunRidHashJoin(w.r, w.s, TestConfig()));
  EXPECT_EQ(rid.output_rows, w.expected_output_rows);
}

}  // namespace
}  // namespace tj
