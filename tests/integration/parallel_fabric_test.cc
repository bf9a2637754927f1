// Concurrent phase execution must be bit-identical to sequential: same
// join output, same traffic matrix, same message delivery order.
#include <gtest/gtest.h>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/key_column_join.h"
#include "core/track_join.h"
#include "workload/generator.h"

namespace tj {
namespace {

TEST(ParallelFabricTest, AllAlgorithmsMatchSequential) {
  WorkloadSpec spec;
  spec.num_nodes = 6;
  spec.matched_keys = 400;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 10;
  spec.s_payload = 22;
  spec.r_unmatched = 100;
  spec.s_unmatched = 100;
  Workload w = GenerateWorkload(spec);

  JoinConfig serial;
  serial.key_bytes = 4;
  ThreadPool pool(4);
  JoinConfig parallel = serial;
  parallel.thread_pool = &pool;

  auto check = [&](auto&& run) {
    JoinResult a = ValueOrDie(run(serial));
    JoinResult b = ValueOrDie(run(parallel));
    EXPECT_EQ(a.output_rows, b.output_rows);
    EXPECT_EQ(a.checksum.digest(), b.checksum.digest());
    EXPECT_EQ(a.traffic.TotalNetworkBytes(), b.traffic.TotalNetworkBytes());
    EXPECT_EQ(a.traffic.TotalLocalBytes(), b.traffic.TotalLocalBytes());
    for (uint32_t node = 0; node < spec.num_nodes; ++node) {
      EXPECT_EQ(a.traffic.EgressBytes(node), b.traffic.EgressBytes(node));
      EXPECT_EQ(a.traffic.IngressBytes(node), b.traffic.IngressBytes(node));
    }
  };

  check([&](const JoinConfig& c) { return TryRunHashJoin(w.r, w.s, c); });
  check([&](const JoinConfig& c) {
    return TryRunBroadcastJoin(w.r, w.s, c, Direction::kRtoS);
  });
  check([&](const JoinConfig& c) {
    return TryRunTrackJoin(w.r, w.s, c, TrackJoinVersion::k2Phase,
                           Direction::kStoR);
  });
  check([&](const JoinConfig& c) {
    return TryRunTrackJoin(w.r, w.s, c, TrackJoinVersion::k3Phase);
  });
  check([&](const JoinConfig& c) {
    return TryRunTrackJoin(w.r, w.s, c, TrackJoinVersion::k4Phase);
  });
  check([&](const JoinConfig& c) { return TryRunRidHashJoin(w.r, w.s, c); });
  check([&](const JoinConfig& c) {
    return TryRunLateMaterializedHashJoin(w.r, w.s, c);
  });
}

TEST(ParallelFabricTest, RepeatedRunsAreStable) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 300;
  spec.s_multiplicity = 4;
  Workload w = GenerateWorkload(spec);
  ThreadPool pool(8);
  JoinConfig config;
  config.key_bytes = 4;
  config.thread_pool = &pool;

  JoinResult first = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
  for (int i = 0; i < 5; ++i) {
    JoinResult again = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                  TrackJoinVersion::k4Phase));
    EXPECT_EQ(again.checksum.digest(), first.checksum.digest());
    EXPECT_EQ(again.traffic.TotalNetworkBytes(),
              first.traffic.TotalNetworkBytes());
  }
}

}  // namespace
}  // namespace tj
