// Chaos sweep: fully randomized workload shapes (node counts, key
// multiplicities, patterns, collocation, selectivities, widths), every
// algorithm run against the single-node reference. Seeds are the
// parameter, so failures reproduce exactly.
#include <gtest/gtest.h>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/rng.h"
#include "core/key_column_join.h"
#include "core/pipelined_track_join.h"
#include "core/recovery.h"
#include "core/track_join.h"
#include "exec/local_join.h"
#include "workload/generator.h"

namespace tj {
namespace {

WorkloadSpec RandomSpec(Rng* rng) {
  WorkloadSpec spec;
  spec.num_nodes = 1 + static_cast<uint32_t>(rng->Below(10));
  spec.matched_keys = rng->Below(400);
  spec.r_multiplicity = 1 + static_cast<uint32_t>(rng->Below(5));
  spec.s_multiplicity = 1 + static_cast<uint32_t>(rng->Below(5));
  spec.r_payload = static_cast<uint32_t>(rng->Below(40));
  spec.s_payload = static_cast<uint32_t>(rng->Below(40));
  spec.r_unmatched = rng->Below(200);
  spec.s_unmatched = rng->Below(200);
  spec.seed = rng->Next();
  switch (rng->Below(3)) {
    case 0:
      spec.collocation = Collocation::kRandom;
      break;
    case 1:
      spec.collocation = Collocation::kIntra;
      break;
    default:
      spec.collocation = Collocation::kInter;
      break;
  }
  if (spec.collocation != Collocation::kRandom) {
    spec.collocated_fraction = rng->NextDouble();
    // Random pattern: split the multiplicity into <= num_nodes groups.
    auto make_pattern = [&](uint32_t mult) {
      std::vector<uint32_t> pattern;
      uint32_t left = mult;
      while (left > 0 && pattern.size() + 1 < spec.num_nodes) {
        uint32_t take = 1 + static_cast<uint32_t>(rng->Below(left));
        pattern.push_back(take);
        left -= take;
      }
      if (left > 0) pattern.push_back(left);
      return pattern;
    };
    spec.r_pattern = make_pattern(spec.r_multiplicity);
    spec.s_pattern = make_pattern(spec.s_multiplicity);
  }
  return spec;
}

/// The pipelined track-join versions the sweeps cover (2TJ in its R->S
/// direction, as tjsim's 2tj-r).
std::vector<std::pair<const char*, TrackJoinVersion>> PipelinedVersions() {
  return {{"p2TJ-R", TrackJoinVersion::k2Phase},
          {"p3TJ", TrackJoinVersion::k3Phase},
          {"p4TJ", TrackJoinVersion::k4Phase}};
}

JoinChecksum Reference(const Workload& w, uint64_t* rows) {
  TupleBlock all_r(w.r.payload_width()), all_s(w.s.payload_width());
  for (uint32_t node = 0; node < w.r.num_nodes(); ++node) {
    const TupleBlock& br = w.r.node(node);
    for (uint64_t row = 0; row < br.size(); ++row) all_r.AppendFrom(br, row);
    const TupleBlock& bs = w.s.node(node);
    for (uint64_t row = 0; row < bs.size(); ++row) all_s.AppendFrom(bs, row);
  }
  // Per-pair JoinChecksum::Accumulate, the digest's definition: the
  // reference shares no code with the drivers' group checksum.
  const uint32_t wr = w.r.payload_width(), ws = w.s.payload_width();
  JoinChecksum checksum;
  *rows = SortMergeJoin(
      &all_r, &all_s,
      [&](uint64_t key, const uint8_t* pr, const uint8_t* ps) {
        checksum.Accumulate(key, pr, wr, ps, ws);
      });
  return checksum;
}

class ChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosTest, EveryAlgorithmMatchesReference) {
  Rng rng(GetParam() * 7919 + 13);
  for (int round = 0; round < 4; ++round) {
    WorkloadSpec spec = RandomSpec(&rng);
    Workload w = GenerateWorkload(spec);
    uint64_t expected_rows = 0;
    JoinChecksum expected = Reference(w, &expected_rows);
    ASSERT_EQ(expected_rows, w.expected_output_rows);

    JoinConfig config;
    config.key_bytes = 4;
    auto check = [&](const char* name, const Result<JoinResult>& run) {
      ASSERT_TRUE(run.ok()) << name << " seed=" << GetParam()
                            << " round=" << round << ": "
                            << run.status().ToString();
      EXPECT_EQ(run->output_rows, expected_rows)
          << name << " seed=" << GetParam() << " round=" << round;
      EXPECT_EQ(run->checksum.digest(), expected.digest())
          << name << " seed=" << GetParam() << " round=" << round;
    };
    check("HJ", TryRunHashJoin(w.r, w.s, config));
    check("BJ-R", TryRunBroadcastJoin(w.r, w.s, config, Direction::kRtoS));
    check("BJ-S", TryRunBroadcastJoin(w.r, w.s, config, Direction::kStoR));
    check("2TJ-R", TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                                   Direction::kRtoS));
    check("2TJ-S", TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                                   Direction::kStoR));
    check("3TJ", TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase));
    check("4TJ", TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase));
    for (const auto& [name, version] : PipelinedVersions()) {
      check(name, TryRunPipelinedTrackJoin(w.r, w.s, config, version));
    }
    check("rid-HJ", TryRunRidHashJoin(w.r, w.s, config));
    check("late-HJ", TryRunLateMaterializedHashJoin(w.r, w.s, config));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range(1, 13));

// Fault chaos: the same all-algorithms-vs-reference sweep, but behind a
// randomized (sometimes all-zero) FaultPolicy. Recoverable fault rates must
// leave every result exact — bit flips, drops and duplicates are absorbed
// by the retry protocol, never joined into the output — and the all-zero
// policy must not even change the traffic matrix.
class FaultChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultChaosTest, RecoverableFaultsLeaveResultsExact) {
  Rng rng(GetParam() * 104729 + 7);
  for (int round = 0; round < 3; ++round) {
    WorkloadSpec spec = RandomSpec(&rng);
    Workload w = GenerateWorkload(spec);
    uint64_t expected_rows = 0;
    JoinChecksum expected = Reference(w, &expected_rows);

    // Roughly one round in four runs the all-zero policy: the equivalence
    // branch below then asserts the byte-identical pristine path.
    FaultPolicy policy;
    if (rng.Below(4) != 0) {
      policy.drop = rng.NextDouble() * 0.05;
      policy.corrupt = rng.NextDouble() * 0.05;
      policy.duplicate = rng.NextDouble() * 0.05;
      policy.reorder = rng.NextDouble() * 0.2;
      policy.max_retries = 64;  // Recoverable by construction.
    }

    JoinConfig config;
    config.key_bytes = 4;
    JoinConfig faulty = config;
    faulty.fault_policy = &policy;
    faulty.fault_seed = rng.Next();

    auto check = [&](const char* name, Result<JoinResult> run,
                     Result<JoinResult> clean) {
      ASSERT_TRUE(run.ok()) << name << " seed=" << GetParam()
                            << " round=" << round << ": "
                            << run.status().ToString();
      const JoinResult& result = *run;
      EXPECT_EQ(result.output_rows, expected_rows)
          << name << " seed=" << GetParam() << " round=" << round;
      EXPECT_EQ(result.checksum.digest(), expected.digest())
          << name << " seed=" << GetParam() << " round=" << round;
      if (!policy.active()) {
        // All-zero policy: identical traffic (framing stays off) and no
        // reliability work at all.
        ASSERT_TRUE(clean.ok());
        EXPECT_TRUE(result.traffic == clean->traffic)
            << name << " seed=" << GetParam() << " round=" << round;
        EXPECT_EQ(result.reliability.retransmitted_frames, 0u);
        EXPECT_EQ(result.traffic.TotalRetransmitBytes(), 0u);
      } else {
        // Goodput counts each message's first framed copy: the clean run's
        // payload bytes plus exactly one 16-byte header per network
        // message. Retry traffic lives only in the retransmit ledger.
        ASSERT_TRUE(clean.ok());
        uint64_t goodput = result.traffic.TotalNetworkBytes();
        uint64_t unframed = clean->traffic.TotalNetworkBytes();
        EXPECT_GE(goodput, unframed)
            << name << " seed=" << GetParam() << " round=" << round;
        EXPECT_EQ((goodput - unframed) % kFrameHeaderBytes, 0u)
            << name << " seed=" << GetParam() << " round=" << round;
      }
    };
    check("HJ", TryRunHashJoin(w.r, w.s, faulty),
          TryRunHashJoin(w.r, w.s, config));
    check("BJ-R", TryRunBroadcastJoin(w.r, w.s, faulty, Direction::kRtoS),
          TryRunBroadcastJoin(w.r, w.s, config, Direction::kRtoS));
    check("2TJ-R",
          TryRunTrackJoin(w.r, w.s, faulty, TrackJoinVersion::k2Phase,
                          Direction::kRtoS),
          TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                          Direction::kRtoS));
    check("3TJ", TryRunTrackJoin(w.r, w.s, faulty, TrackJoinVersion::k3Phase),
          TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase));
    check("4TJ", TryRunTrackJoin(w.r, w.s, faulty, TrackJoinVersion::k4Phase),
          TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase));
    for (const auto& [name, version] : PipelinedVersions()) {
      check(name, TryRunPipelinedTrackJoin(w.r, w.s, faulty, version),
            TryRunPipelinedTrackJoin(w.r, w.s, config, version));
    }
    check("rid-HJ", TryRunRidHashJoin(w.r, w.s, faulty),
          TryRunRidHashJoin(w.r, w.s, config));
    check("late-HJ", TryRunLateMaterializedHashJoin(w.r, w.s, faulty),
          TryRunLateMaterializedHashJoin(w.r, w.s, config));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChaosTest, ::testing::Range(1, 9));

// --- Recovery chaos --------------------------------------------------------

/// The nine named algorithms as recovery runners, in tjsim's order.
std::vector<std::pair<const char*, JoinRunner>> AllRunners() {
  auto tj = [](TrackJoinVersion version, Direction dir) {
    return [version, dir](const PartitionedTable& r, const PartitionedTable& s,
                          const JoinConfig& cfg) {
      return TryRunTrackJoin(r, s, cfg, version, dir);
    };
  };
  return {
      {"bj-r",
       [](const PartitionedTable& r, const PartitionedTable& s,
          const JoinConfig& cfg) {
         return TryRunBroadcastJoin(r, s, cfg, Direction::kRtoS);
       }},
      {"bj-s",
       [](const PartitionedTable& r, const PartitionedTable& s,
          const JoinConfig& cfg) {
         return TryRunBroadcastJoin(r, s, cfg, Direction::kStoR);
       }},
      {"hj",
       [](const PartitionedTable& r, const PartitionedTable& s,
          const JoinConfig& cfg) { return TryRunHashJoin(r, s, cfg); }},
      {"2tj-r", tj(TrackJoinVersion::k2Phase, Direction::kRtoS)},
      {"2tj-s", tj(TrackJoinVersion::k2Phase, Direction::kStoR)},
      {"3tj", tj(TrackJoinVersion::k3Phase, Direction::kRtoS)},
      {"4tj", tj(TrackJoinVersion::k4Phase, Direction::kRtoS)},
      {"rid-hj",
       [](const PartitionedTable& r, const PartitionedTable& s,
          const JoinConfig& cfg) { return TryRunRidHashJoin(r, s, cfg); }},
      {"late-hj",
       [](const PartitionedTable& r, const PartitionedTable& s,
          const JoinConfig& cfg) {
         return TryRunLateMaterializedHashJoin(r, s, cfg);
       }},
  };
}

// Randomized crash / loss / straggler schedules against replicated
// placement: every within-budget recovery must land on the byte-identical
// checksum of the pristine reference, with accounting in the original
// cluster's coordinates.
class RecoveryChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryChaosTest, WithinBudgetSchedulesRecoverExactly) {
  Rng rng(GetParam() * 48611 + 101);
  for (int round = 0; round < 2; ++round) {
    WorkloadSpec spec = RandomSpec(&rng);
    // Failover needs survivors: at least 3 nodes, and chained
    // declustering's neighbor must outlive a single death (k=2).
    spec.num_nodes = 3 + static_cast<uint32_t>(rng.Below(6));
    Workload w = GenerateWorkload(spec);
    uint64_t expected_rows = 0;
    JoinChecksum expected = Reference(w, &expected_rows);
    ReplicatedWorkload rw = ReplicateWorkload(w, 2);

    FaultPolicy policy;
    RecoveryOptions options;
    JoinConfig config;
    config.key_bytes = 4;
    const uint32_t shape = static_cast<uint32_t>(rng.Below(3));
    if (shape == 0) {  // Fail-stop crash at a random phase.
      policy.crash_node = static_cast<uint32_t>(rng.Below(spec.num_nodes));
      policy.crash_phase = static_cast<uint32_t>(rng.Below(5));
    } else if (shape == 1) {  // Recoverable message-level attrition.
      policy.drop = rng.NextDouble() * 0.05;
      policy.corrupt = rng.NextDouble() * 0.05;
      policy.max_retries = 64;
    } else {  // Straggler past the modeled deadline.
      policy.slow_node = static_cast<uint32_t>(rng.Below(spec.num_nodes));
      policy.slowdown_seconds = 2.0;
      config.phase_deadline_seconds = 0.5;
    }

    config.fault_policy = &policy;
    config.fault_seed = rng.Next();

    for (const auto& [name, runner] : AllRunners()) {
      RecoveryReport report;
      Result<JoinResult> run =
          RunWithRecovery(rw.r, rw.s, config, options, runner, &report);
      ASSERT_TRUE(run.ok())
          << name << " seed=" << GetParam() << " round=" << round
          << " shape=" << shape << ": " << run.status().ToString();
      EXPECT_EQ(run->output_rows, expected_rows)
          << name << " seed=" << GetParam() << " round=" << round;
      EXPECT_EQ(run->checksum.digest(), expected.digest())
          << name << " seed=" << GetParam() << " round=" << round;
      // Accounting invariants: original coordinates, ledger consistency.
      EXPECT_EQ(run->traffic.num_nodes(), spec.num_nodes);
      EXPECT_EQ(run->profile.recovery_bytes,
                run->traffic.TotalRecoveryBytes());
      EXPECT_EQ(report.recovery_bytes, run->profile.recovery_bytes);
      EXPECT_GE(report.attempts, 1u);
      if (report.attempts == 1) {
        // First try succeeded: nothing may bill to the recovery ledger.
        EXPECT_EQ(run->profile.recovery_bytes, 0u)
            << name << " seed=" << GetParam() << " round=" << round;
      }
      if (shape != 1) {
        // A crash or promoted straggler always costs at least one failover
        // once the fault actually fires (crash_phase may sit past the
        // run's last phase, in which case attempt 1 simply succeeds).
        EXPECT_LE(report.failovers, 1u);
        if (report.failovers == 1) {
          const uint32_t victim =
              shape == 0 ? policy.crash_node : policy.slow_node;
          EXPECT_EQ(report.dead_nodes, (std::vector<uint32_t>{victim}))
              << name << " seed=" << GetParam() << " round=" << round;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryChaosTest, ::testing::Range(1, 8));

// Beyond-budget schedules must fail with a *typed* error — never an abort,
// a hang, or a partial result.
TEST(RecoveryBudgetTest, UnreplicatedCrashIsTypedUnavailable) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 200;
  spec.seed = 5;
  Workload w = GenerateWorkload(spec);
  ReplicatedWorkload rw = ReplicateWorkload(w, 1);  // No spare copies.
  FaultPolicy policy;
  policy.crash_node = 1;
  JoinConfig config;
  config.key_bytes = 4;
  config.fault_policy = &policy;
  config.fault_seed = 2;

  for (const auto& [name, runner] : AllRunners()) {
    RecoveryReport report;
    Result<JoinResult> run =
        RunWithRecovery(rw.r, rw.s, config, {}, runner, &report);
    ASSERT_FALSE(run.ok()) << name;
    EXPECT_EQ(run.status().code(), StatusCode::kUnavailable) << name;
  }
}

TEST(RecoveryBudgetTest, TotalLossExhaustsBudgetTyped) {
  WorkloadSpec spec;
  spec.num_nodes = 3;
  spec.matched_keys = 100;
  spec.seed = 6;
  Workload w = GenerateWorkload(spec);
  ReplicatedWorkload rw = ReplicateWorkload(w, 2);
  FaultPolicy policy;
  policy.drop = 1.0;  // Unrecoverable on every topology.
  policy.max_retries = 2;
  JoinConfig config;
  config.key_bytes = 4;
  config.fault_policy = &policy;
  config.fault_seed = 3;
  RecoveryOptions options;
  options.max_attempts = 2;

  RecoveryReport report;
  Result<JoinResult> run = RunWithRecovery(
      rw.r, rw.s, config, options,
      [](const PartitionedTable& r, const PartitionedTable& s,
         const JoinConfig& cfg) { return TryRunHashJoin(r, s, cfg); },
      &report);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(run.status().ToString().find("recovery budget exhausted"),
            std::string::npos);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_GT(report.recovery_bytes, 0u);  // The failed attempts are billed.
}

}  // namespace
}  // namespace tj
