// Configuration-matrix sweep: every track join version must produce the
// reference join result under EVERY combination of feature toggles (wire
// compression, load balancing, materialization, threading) and across
// cluster sizes — the combinations are where integration bugs hide.
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/track_join.h"
#include "workload/generator.h"

namespace tj {
namespace {

// (version, delta_tracking, group_locations, balance_loads, materialize,
//  use_thread_pool, num_nodes)
using MatrixParam = std::tuple<int, bool, bool, bool, bool, bool, int>;

class ConfigMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ConfigMatrixTest, MatchesReference) {
  auto [version_int, delta, group, balance, materialize, threaded, nodes] =
      GetParam();

  WorkloadSpec spec;
  spec.num_nodes = static_cast<uint32_t>(nodes);
  spec.matched_keys = 150;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 9;
  spec.s_payload = 17;
  spec.r_unmatched = 40;
  spec.s_unmatched = 60;
  if (nodes >= 2) {
    spec.s_pattern = {2, 1};
    spec.r_pattern = {1, 1};
    spec.collocation = Collocation::kIntra;
    spec.collocated_fraction = 0.5;
  }
  Workload w = GenerateWorkload(spec);

  JoinConfig reference_config;
  reference_config.key_bytes = 4;
  JoinResult reference =
      ValueOrDie(TryRunHashJoin(w.r, w.s, reference_config));
  ASSERT_EQ(reference.output_rows, w.expected_output_rows);

  ThreadPool pool(3);
  JoinConfig config;
  config.key_bytes = 4;
  config.delta_tracking = delta;
  config.group_locations = group;
  config.balance_loads = balance;
  config.materialize = materialize;
  config.thread_pool = threaded ? &pool : nullptr;

  JoinResult result = ValueOrDie(TryRunTrackJoin(
      w.r, w.s, config, static_cast<TrackJoinVersion>(version_int)));
  EXPECT_EQ(result.output_rows, reference.output_rows);
  EXPECT_EQ(result.checksum.digest(), reference.checksum.digest());
  if (materialize) {
    ASSERT_TRUE(result.output.has_value());
    EXPECT_EQ(result.output->TotalRows(), reference.output_rows);
  } else {
    EXPECT_FALSE(result.output.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigMatrixTest,
    ::testing::Combine(::testing::Values(2, 3, 4),      // version
                       ::testing::Bool(),               // delta_tracking
                       ::testing::Bool(),               // group_locations
                       ::testing::Values(false, true),  // balance_loads
                       ::testing::Values(false, true),  // materialize
                       ::testing::Values(false, true),  // thread pool
                       ::testing::Values(1, 3, 8)));    // nodes

}  // namespace
}  // namespace tj
