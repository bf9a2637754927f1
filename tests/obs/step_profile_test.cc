// StepProfile invariants: per-phase records must sum to the run's
// end-to-end totals (wall times, per-type byte ledgers, recovery counters),
// the goodput/retransmit split must match the TrafficMatrix exactly — with
// and without an active FaultPolicy — and the JSON/CSV renderings are
// golden-checked so `tjsim --profile` output stays a stable interface.
#include "obs/step_profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/key_column_join.h"
#include "core/pipelined_track_join.h"
#include "core/semi_join.h"
#include "core/track_join.h"
#include "net/fault_injector.h"
#include "workload/generator.h"

namespace tj {
namespace {

Workload TestWorkload(uint32_t nodes = 4) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = 600;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_unmatched = 100;
  spec.s_unmatched = 150;
  spec.r_payload = 16;
  spec.s_payload = 16;
  spec.seed = 42;
  return GenerateWorkload(spec);
}

// The per-step records must add up to exactly what the run's TrafficMatrix
// and phase_seconds report, per message type and in total, for every
// algorithm entry point.
void CheckProfileMatchesRun(const std::string& label, const JoinResult& r) {
  SCOPED_TRACE(label);
  const StepProfile& prof = r.profile;
  EXPECT_EQ(prof.algorithm, label);
  ASSERT_FALSE(prof.steps.empty());

  // Wall time: the profile carries the same per-phase times in the same
  // order as the phase_seconds projection.
  ASSERT_EQ(prof.steps.size(), r.phase_seconds.size());
  for (size_t i = 0; i < prof.steps.size(); ++i) {
    EXPECT_EQ(prof.steps[i].phase, r.phase_seconds[i].first);
    EXPECT_DOUBLE_EQ(prof.steps[i].wall_seconds, r.phase_seconds[i].second);
  }

  // Bytes: phase deltas must sum to the final matrix, type by type.
  for (int t = 0; t < kNumMessageTypes; ++t) {
    MessageType type = static_cast<MessageType>(t);
    EXPECT_EQ(prof.NetworkBytes(type), r.traffic.NetworkBytes(type))
        << MessageTypeName(type);
    EXPECT_EQ(prof.LocalBytes(type), r.traffic.LocalBytes(type))
        << MessageTypeName(type);
    EXPECT_EQ(prof.RetransmitBytes(type), r.traffic.RetransmitBytes(type))
        << MessageTypeName(type);
  }
  EXPECT_EQ(prof.TotalGoodputBytes(), r.traffic.TotalNetworkBytes());
  EXPECT_EQ(prof.TotalLocalBytes(), r.traffic.TotalLocalBytes());
  EXPECT_EQ(prof.TotalRetransmitBytes(), r.traffic.TotalRetransmitBytes());
  EXPECT_EQ(prof.run_max_node_bytes, r.traffic.MaxNodeBytes());

  // Recovery counters: phase deltas sum to the run's reliability stats.
  EXPECT_EQ(prof.TotalRetransmittedFrames(),
            r.reliability.retransmitted_frames);
  EXPECT_EQ(prof.TotalNackMessages(), r.reliability.nack_messages);

  // A phase's NIC bottleneck can never exceed its total network bytes, and
  // the whole-run bottleneck can never exceed the sum of phase bottlenecks.
  uint64_t phase_bottleneck_sum = 0;
  for (const StepRecord& s : prof.steps) {
    EXPECT_LE(s.max_node_bytes, s.goodput_bytes + s.retransmit_bytes);
    phase_bottleneck_sum += s.max_node_bytes;
  }
  EXPECT_LE(prof.run_max_node_bytes, phase_bottleneck_sum);

  // Memory: each phase records the process high-water mark at its barrier,
  // which only ever rises.
  for (size_t i = 0; i < prof.steps.size(); ++i) {
    EXPECT_GT(prof.steps[i].peak_rss_bytes, 0u) << prof.steps[i].phase;
    if (i > 0) {
      EXPECT_GE(prof.steps[i].peak_rss_bytes,
                prof.steps[i - 1].peak_rss_bytes);
    }
  }
}

TEST(StepProfileTest, PipelinedStagesCarryTheRunPeak) {
  // Pipelined stages overlap, so no stage has a high-water mark of its own:
  // every stage carries the run's.
  Workload w = TestWorkload();
  JoinConfig config;
  config.key_bytes = 4;
  JoinResult r = ValueOrDie(
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase));
  ASSERT_FALSE(r.profile.steps.empty());
  for (const StepRecord& s : r.profile.steps) {
    EXPECT_GT(s.peak_rss_bytes, 0u);
    EXPECT_EQ(s.peak_rss_bytes, r.profile.steps.front().peak_rss_bytes);
  }
}

TEST(StepProfileTest, PhaseSumsMatchRunTotalsForEveryAlgorithm) {
  Workload w = TestWorkload();
  JoinConfig config;
  config.key_bytes = 4;
  CheckProfileMatchesRun("hj", ValueOrDie(TryRunHashJoin(w.r, w.s, config)));
  CheckProfileMatchesRun("bj-r",
                         ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config,
                                                        Direction::kRtoS)));
  CheckProfileMatchesRun("bj-s",
                         ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config,
                                                        Direction::kStoR)));
  CheckProfileMatchesRun("2tj-r",
                         ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                    TrackJoinVersion::k2Phase,
                                                    Direction::kRtoS)));
  CheckProfileMatchesRun("2tj-s",
                         ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                    TrackJoinVersion::k2Phase,
                                                    Direction::kStoR)));
  CheckProfileMatchesRun(
      "3tj",
      ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase)));
  CheckProfileMatchesRun(
      "4tj",
      ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase)));
  CheckProfileMatchesRun("rid-hj",
                         ValueOrDie(TryRunRidHashJoin(w.r, w.s, config)));
  CheckProfileMatchesRun("late-hj",
                         ValueOrDie(TryRunLateMaterializedHashJoin(w.r, w.s,
                                                                   config)));
}

TEST(StepProfileTest, SemiJoinWrapperPrependsFilterPhases) {
  Workload w = TestWorkload();
  JoinConfig config;
  config.key_bytes = 4;
  SemiJoinConfig semi;
  JoinResult r = ValueOrDie(TryRunFilteredHashJoin(w.r, w.s, config, semi));
  const StepProfile& prof = r.profile;
  EXPECT_EQ(prof.algorithm, "sj+hj");
  ASSERT_FALSE(prof.steps.empty());
  EXPECT_EQ(prof.steps.front().phase, "broadcast bloom filters");
  // The filter exchange moves bloom filters over the wire; the profile must
  // see those bytes even though they happen before the inner join's fabric.
  ASSERT_NE(prof.Find("broadcast bloom filters"), nullptr);
  EXPECT_GT(prof.Find("broadcast bloom filters")->goodput_bytes, 0u);
  // And the spliced profile still reconciles with the merged traffic.
  EXPECT_EQ(prof.TotalGoodputBytes(), r.traffic.TotalNetworkBytes());
  EXPECT_EQ(prof.TotalLocalBytes(), r.traffic.TotalLocalBytes());
}

TEST(StepProfileTest, GoodputRetransmitSplitMatchesLedgersUnderFaults) {
  Workload w = TestWorkload();
  FaultPolicy policy;
  policy.drop = 0.05;
  policy.corrupt = 0.05;
  policy.duplicate = 0.05;
  policy.max_retries = 64;
  JoinConfig config;
  config.key_bytes = 4;
  config.fault_policy = &policy;
  config.fault_seed = 7;

  Result<JoinResult> run = TryRunHashJoin(w.r, w.s, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  CheckProfileMatchesRun("hj", *run);
  // With these rates on this workload the recovery protocol must have done
  // real work, and it must be accounted to specific phases.
  const StepProfile& prof = run->profile;
  EXPECT_GT(prof.TotalRetransmitBytes(), 0u);
  EXPECT_GT(prof.TotalRetransmittedFrames(), 0u);
  uint64_t faults = 0;
  for (const StepRecord& s : prof.steps) {
    faults += s.frames_dropped + s.frames_corrupted + s.frames_duplicated;
  }
  EXPECT_EQ(faults, run->reliability.faults.frames_dropped +
                        run->reliability.faults.frames_corrupted +
                        run->reliability.faults.frames_duplicated);

  Result<JoinResult> track = TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k4Phase);
  ASSERT_TRUE(track.ok()) << track.status().ToString();
  CheckProfileMatchesRun("4tj", *track);
}

// Both fabrics account each transmission into the run's ledgers and its
// step together, so under drops, duplicates and corruptions the steps add
// up to the TrafficMatrix and to reliability() exactly — the pipelined
// fabric's retries and faults included, which land in the sending stage.
TEST(StepProfileTest, FaultedStepsSumToRunLedgersOnBothFabrics) {
  Workload w = TestWorkload();
  FaultPolicy policy;
  policy.drop = 0.05;
  policy.duplicate = 0.05;
  policy.corrupt = 0.05;
  policy.max_retries = 64;
  JoinConfig config;
  config.key_bytes = 4;
  config.fault_policy = &policy;
  config.fault_seed = 11;

  auto check_faults = [](const std::string& label, const JoinResult& r) {
    SCOPED_TRACE(label);
    const StepProfile& prof = r.profile;
    EXPECT_GT(prof.TotalRetransmitBytes(), 0u);
    uint64_t dropped = 0, corrupted = 0, duplicated = 0;
    for (const StepRecord& s : prof.steps) {
      dropped += s.frames_dropped;
      corrupted += s.frames_corrupted;
      duplicated += s.frames_duplicated;
    }
    EXPECT_GT(dropped + corrupted + duplicated, 0u);
    EXPECT_EQ(dropped, r.reliability.faults.frames_dropped);
    EXPECT_EQ(corrupted, r.reliability.faults.frames_corrupted);
    EXPECT_EQ(duplicated, r.reliability.faults.frames_duplicated);
  };

  Result<JoinResult> barrier =
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(barrier.ok()) << barrier.status().ToString();
  CheckProfileMatchesRun("4tj", *barrier);
  check_faults("4tj", *barrier);

  Result<JoinResult> pipelined =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  CheckProfileMatchesRun("4tj-p", *pipelined);
  check_faults("4tj-p", *pipelined);
  EXPECT_EQ(pipelined->checksum.digest(), barrier->checksum.digest());
}

TEST(StepProfileTest, InactivePolicyKeepsProfilePassiveAndDeterministic) {
  Workload w = TestWorkload();
  FaultPolicy inactive;  // All-zero: fabric must stay on the pristine path.
  ASSERT_FALSE(inactive.active());
  JoinConfig config;
  config.key_bytes = 4;
  JoinConfig with_policy = config;
  with_policy.fault_policy = &inactive;

  JoinResult plain = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
  JoinResult observed = ValueOrDie(TryRunHashJoin(w.r, w.s, with_policy));
  EXPECT_EQ(plain.checksum.digest(), observed.checksum.digest());
  EXPECT_EQ(plain.output_rows, observed.output_rows);
  EXPECT_TRUE(plain.traffic == observed.traffic);
  EXPECT_EQ(plain.profile.TotalRetransmitBytes(), 0u);
  EXPECT_EQ(observed.profile.TotalRetransmitBytes(), 0u);
  // Byte-level records are reproducible run to run.
  ASSERT_EQ(plain.profile.steps.size(), observed.profile.steps.size());
  for (size_t i = 0; i < plain.profile.steps.size(); ++i) {
    EXPECT_EQ(plain.profile.steps[i].goodput_bytes,
              observed.profile.steps[i].goodput_bytes);
    EXPECT_EQ(plain.profile.steps[i].max_node_bytes,
              observed.profile.steps[i].max_node_bytes);
  }
}

StepProfile GoldenProfile() {
  StepProfile prof;
  prof.algorithm = "hj";
  prof.num_nodes = 2;
  prof.run_max_node_bytes = 7;
  StepRecord rec;
  rec.phase = "p";
  rec.wall_seconds = 0.5;
  rec.net_seconds = 0.25;
  rec.goodput_bytes = 10;
  rec.local_bytes = 4;
  rec.retransmit_bytes = 2;
  rec.max_node_bytes = 7;
  rec.retransmitted_frames = 1;
  rec.nack_messages = 1;
  rec.frames_dropped = 1;
  rec.peak_rss_bytes = 3 << 20;
  rec.network_bytes_by_type[static_cast<int>(MessageType::kDataR)] = 10;
  rec.local_bytes_by_type[static_cast<int>(MessageType::kDataR)] = 4;
  rec.retransmit_bytes_by_type[static_cast<int>(MessageType::kAck)] = 2;
  prof.steps.push_back(rec);
  return prof;
}

TEST(StepProfileTest, JsonGolden) {
  EXPECT_EQ(
      ToJson(GoldenProfile()),
      "{\"algorithm\": \"hj\", \"nodes\": 2, \"totals\": "
      "{\"wall_seconds\": 0.5, \"net_seconds\": 0.25, \"goodput_bytes\": 10, "
      "\"local_bytes\": 4, \"retransmit_bytes\": 2, "
      "\"run_max_node_bytes\": 7, \"recovery_bytes\": 0}, \"steps\": "
      "[{\"phase\": \"p\", "
      "\"wall_seconds\": 0.5, \"net_seconds\": 0.25, \"goodput_bytes\": 10, "
      "\"local_bytes\": 4, \"retransmit_bytes\": 2, \"max_node_bytes\": 7, "
      "\"retransmitted_frames\": 1, \"nack_messages\": 1, "
      "\"frames_dropped\": 1, \"frames_corrupted\": 0, "
      "\"frames_duplicated\": 0, \"peak_rss_bytes\": 3145728, "
      "\"bytes_by_type\": "
      "{\"data_r\": {\"network\": 10, \"local\": 4, \"retransmit\": 0}, "
      "\"ack\": {\"network\": 0, \"local\": 0, \"retransmit\": 2}}}]}");
}

TEST(StepProfileTest, CsvGolden) {
  EXPECT_EQ(StepCsvHeader(),
            "algorithm,phase,wall_seconds,net_seconds,goodput_bytes,"
            "local_bytes,retransmit_bytes,max_node_bytes,"
            "retransmitted_frames,nack_messages,frames_dropped,"
            "frames_corrupted,frames_duplicated,peak_rss_bytes");
  EXPECT_EQ(ToCsv(GoldenProfile()),
            "hj,\"p\",0.5,0.25,10,4,2,7,1,1,1,0,0,3145728\n");
}

TEST(StepProfileTest, CsvEscapesHostilePhaseAndAlgorithmNames) {
  StepProfile prof = GoldenProfile();
  // A phase name carrying every CSV-hostile character: delimiter, quote,
  // newline, carriage return.
  prof.steps[0].phase = "track, \"phase\"\r\none";
  prof.algorithm = "h,j\"x";
  std::string csv = ToCsv(prof);
  // RFC 4180: both fields quoted, internal quotes doubled, separators and
  // line breaks preserved inside the quotes — exactly one record row.
  EXPECT_EQ(csv,
            "\"h,j\"\"x\",\"track, \"\"phase\"\"\r\none\","
            "0.5,0.25,10,4,2,7,1,1,1,0,0,3145728\n");
}

TEST(StepProfileTest, CsvDoesNotTruncateLongNames) {
  StepProfile prof = GoldenProfile();
  prof.steps[0].phase = std::string(2000, 'p') + ",\"";
  std::string csv = ToCsv(prof);
  EXPECT_NE(csv.find(std::string(2000, 'p')), std::string::npos);
  EXPECT_EQ(csv.back(), '\n');
}

TEST(StepProfileTest, JsonEscapesHostileNames) {
  StepProfile prof = GoldenProfile();
  prof.algorithm = "a\"b\\c";
  prof.steps[0].phase = "p\nq\tr";
  std::string json = ToJson(prof);
  EXPECT_NE(json.find("\"algorithm\": \"a\\\"b\\\\c\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"phase\": \"p\\nq\\tr\""), std::string::npos) << json;
  // No raw control characters may survive into the JSON text.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(StepProfileTest, ApplyTimeModelReprices) {
  StepProfile prof = GoldenProfile();
  NetworkTimeModel model;
  model.node_bandwidth_bytes_per_sec = 14.0;
  prof.ApplyTimeModel(model);
  EXPECT_DOUBLE_EQ(prof.steps[0].net_seconds, 0.5);  // 7 bytes / 14 B/s.
  EXPECT_DOUBLE_EQ(prof.TotalNetSeconds(), 0.5);
}

TEST(StepProfileTest, FindAndWallSeconds) {
  StepProfile prof = GoldenProfile();
  ASSERT_NE(prof.Find("p"), nullptr);
  EXPECT_EQ(prof.Find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(prof.WallSeconds("p"), 0.5);
  EXPECT_DOUBLE_EQ(prof.WallSeconds("missing"), 0.0);
}

}  // namespace
}  // namespace tj
