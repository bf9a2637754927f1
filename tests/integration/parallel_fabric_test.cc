// Concurrent phase execution must be bit-identical to sequential: same
// join output, same traffic matrix, same message delivery order — also
// with a fault policy, where every node frames and injects concurrently.
#include <gtest/gtest.h>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/key_column_join.h"
#include "core/track_join.h"
#include "net/fault_injector.h"
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

TEST(ParallelFabricTest, FaultedRunsMatchSequential) {
  WorkloadSpec spec;
  spec.num_nodes = 6;
  spec.matched_keys = 400;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_unmatched = 100;
  spec.s_unmatched = 100;
  Workload w = GenerateWorkload(spec);

  FaultPolicy policy;
  policy.drop = 0.05;
  policy.duplicate = 0.05;
  policy.corrupt = 0.05;
  policy.reorder = 0.1;
  policy.max_retries = 64;
  JoinConfig serial;
  serial.key_bytes = 4;
  serial.fault_policy = &policy;
  serial.fault_seed = 3;
  ThreadPool pool(4);
  JoinConfig parallel = serial;
  parallel.thread_pool = &pool;

  auto check = [&](const char* label, auto&& run) {
    SCOPED_TRACE(label);
    JoinResult a = ValueOrDie(run(serial));
    JoinResult b = ValueOrDie(run(parallel));
    EXPECT_EQ(a.checksum.digest(), b.checksum.digest());
    // All three ledgers, cell by cell.
    EXPECT_TRUE(a.traffic == b.traffic);
    EXPECT_GT(a.traffic.TotalRetransmitBytes(), 0u);
    const ReliabilityStats& ra = a.reliability;
    const ReliabilityStats& rb = b.reliability;
    EXPECT_EQ(ra.faults.frames_dropped, rb.faults.frames_dropped);
    EXPECT_EQ(ra.faults.frames_corrupted, rb.faults.frames_corrupted);
    EXPECT_EQ(ra.faults.frames_duplicated, rb.faults.frames_duplicated);
    EXPECT_EQ(ra.faults.messages_reordered, rb.faults.messages_reordered);
    EXPECT_EQ(ra.retransmitted_frames, rb.retransmitted_frames);
    EXPECT_EQ(ra.nack_messages, rb.nack_messages);
    const std::vector<StepRecord>& sa = a.profile.steps;
    const std::vector<StepRecord>& sb = b.profile.steps;
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      SCOPED_TRACE(sa[i].phase);
      EXPECT_EQ(sa[i].phase, sb[i].phase);
      EXPECT_EQ(sa[i].goodput_bytes, sb[i].goodput_bytes);
      EXPECT_EQ(sa[i].local_bytes, sb[i].local_bytes);
      EXPECT_EQ(sa[i].retransmit_bytes, sb[i].retransmit_bytes);
      EXPECT_EQ(sa[i].max_node_bytes, sb[i].max_node_bytes);
      EXPECT_EQ(sa[i].net_seconds, sb[i].net_seconds);
      EXPECT_EQ(sa[i].network_bytes_by_type, sb[i].network_bytes_by_type);
      EXPECT_EQ(sa[i].local_bytes_by_type, sb[i].local_bytes_by_type);
      EXPECT_EQ(sa[i].retransmit_bytes_by_type,
                sb[i].retransmit_bytes_by_type);
      EXPECT_EQ(sa[i].retransmitted_frames, sb[i].retransmitted_frames);
      EXPECT_EQ(sa[i].nack_messages, sb[i].nack_messages);
      EXPECT_EQ(sa[i].frames_dropped, sb[i].frames_dropped);
      EXPECT_EQ(sa[i].frames_corrupted, sb[i].frames_corrupted);
      EXPECT_EQ(sa[i].frames_duplicated, sb[i].frames_duplicated);
    }
  };

  check("4tj", [&](const JoinConfig& c) {
    return TryRunTrackJoin(w.r, w.s, c, TrackJoinVersion::k4Phase);
  });
  check("2tj-r", [&](const JoinConfig& c) {
    return TryRunTrackJoin(w.r, w.s, c, TrackJoinVersion::k2Phase,
                           Direction::kRtoS);
  });
  check("hj", [&](const JoinConfig& c) { return TryRunHashJoin(w.r, w.s, c); });
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
