// Configuration-matrix sweep: every track join version must produce the
// reference join result under EVERY combination of feature toggles (wire
// compression, load balancing, materialization, threading) and across
// cluster sizes — the combinations are where integration bugs hide.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/key_column_join.h"
#include "core/pipelined_track_join.h"
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

// Past 256 nodes a one-byte node id truncates in location, migration and
// rid messages. Every driver that puts ids on the wire must refuse that
// width, and join correctly once the ids get a second byte.
TEST(NodeIdWidthTest, WideClustersNeedWiderNodeIds) {
  WorkloadSpec spec;
  spec.num_nodes = 257;
  spec.matched_keys = 2000;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 2;
  JoinResult reference = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
  ASSERT_EQ(reference.output_rows, w.expected_output_rows);

  using Run = std::function<Result<JoinResult>(const JoinConfig&)>;
  auto track = [&w](TrackJoinVersion version, Direction direction) -> Run {
    return [&w, version, direction](const JoinConfig& c) {
      return TryRunTrackJoin(w.r, w.s, c, version, direction);
    };
  };
  auto pipelined = [&w](TrackJoinVersion version,
                        Direction direction) -> Run {
    return [&w, version, direction](const JoinConfig& c) {
      return TryRunPipelinedTrackJoin(w.r, w.s, c, version, direction);
    };
  };
  const std::vector<std::pair<std::string, Run>> drivers = {
      {"2tj-r", track(TrackJoinVersion::k2Phase, Direction::kRtoS)},
      {"2tj-s", track(TrackJoinVersion::k2Phase, Direction::kStoR)},
      {"3tj", track(TrackJoinVersion::k3Phase, Direction::kRtoS)},
      {"4tj", track(TrackJoinVersion::k4Phase, Direction::kRtoS)},
      {"pipelined 2tj-r",
       pipelined(TrackJoinVersion::k2Phase, Direction::kRtoS)},
      {"pipelined 3tj",
       pipelined(TrackJoinVersion::k3Phase, Direction::kRtoS)},
      {"pipelined 4tj",
       pipelined(TrackJoinVersion::k4Phase, Direction::kRtoS)},
      {"rid-hj",
       [&w](const JoinConfig& c) { return TryRunRidHashJoin(w.r, w.s, c); }},
  };
  for (const auto& [name, run] : drivers) {
    config.node_bytes = 1;
    Result<JoinResult> narrow = run(config);
    EXPECT_EQ(narrow.status().code(), StatusCode::kInvalidArgument) << name;
    config.node_bytes = 2;
    JoinResult wide = ValueOrDie(run(config));
    EXPECT_EQ(wide.output_rows, reference.output_rows) << name;
    EXPECT_EQ(wide.checksum.digest(), reference.checksum.digest()) << name;
  }
}

}  // namespace
}  // namespace tj
