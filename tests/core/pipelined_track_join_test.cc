// Equivalence tests for the pipelined (event-driven micro-batch) track
// join: traffic matrices, checksums, schedules and EXPLAIN audits must be
// byte-identical to the barrier driver's, across versions, scheduling
// features, chunk sizes and inbox budgets — while the modeled makespan
// beats the barrier reference on pipeline-friendly workloads. Fault
// injection must preserve output parity; crashes must fail both drivers.
#include "core/pipelined_track_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "core/track_join.h"
#include "net/failure.h"
#include "obs/blame.h"
#include "workload/generator.h"
#include "workload/real.h"

namespace tj {
namespace {

JoinConfig BaseConfig() {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 1;
  config.node_bytes = 1;
  return config;
}

Workload SmallWorkload(uint32_t nodes = 4) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = 3000;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_unmatched = 500;
  spec.s_unmatched = 700;
  Workload w = GenerateWorkload(spec);
  return w;
}

void ExpectAuditsEqual(const ScheduleAuditLog& barrier,
                       const ScheduleAuditLog& pipelined) {
  const auto a = barrier.Collect();
  const auto b = pipelined.Collect();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "audit " << i;
    EXPECT_EQ(a[i].chosen_dir, b[i].chosen_dir) << "key " << a[i].key;
    EXPECT_EQ(a[i].chosen_cost, b[i].chosen_cost) << "key " << a[i].key;
    EXPECT_EQ(a[i].chosen_migrations, b[i].chosen_migrations)
        << "key " << a[i].key;
    EXPECT_EQ(a[i].chosen_split, b[i].chosen_split) << "key " << a[i].key;
    EXPECT_EQ(a[i].cls, b[i].cls) << "key " << a[i].key;
    EXPECT_EQ(a[i].hash_join_cost, b[i].hash_join_cost) << "key " << a[i].key;
  }
}

// Runs both drivers on the same inputs and checks full equivalence:
// byte-identical traffic (network, local and retransmit ledgers all
// compared cell by cell), checksum, cardinalities and EXPLAIN audits.
void ExpectPipelinedMatchesBarrier(const Workload& w, JoinConfig config,
                                   TrackJoinVersion version,
                                   Direction direction = Direction::kRtoS) {
  ScheduleAuditLog barrier_audit, pipelined_audit;
  JoinConfig barrier_config = config;
  barrier_config.pipeline.enabled = false;
  barrier_config.schedule_audit = &barrier_audit;
  Result<JoinResult> barrier =
      TryRunTrackJoin(w.r, w.s, barrier_config, version, direction);
  ASSERT_TRUE(barrier.ok()) << barrier.status().ToString();

  JoinConfig pipelined_config = config;
  pipelined_config.schedule_audit = &pipelined_audit;
  Result<JoinResult> pipelined = TryRunPipelinedTrackJoin(
      w.r, w.s, pipelined_config, version, direction);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();

  EXPECT_EQ(pipelined->output_rows, barrier->output_rows);
  EXPECT_EQ(pipelined->output_rows, w.expected_output_rows);
  EXPECT_EQ(pipelined->node_output_rows, barrier->node_output_rows);
  EXPECT_TRUE(pipelined->checksum == barrier->checksum);
  EXPECT_TRUE(pipelined->traffic == barrier->traffic)
      << "traffic matrices differ";
  ExpectAuditsEqual(barrier_audit, pipelined_audit);
  EXPECT_GT(pipelined->makespan_seconds, 0.0);
  EXPECT_GT(pipelined->barrier_makespan_seconds, 0.0);
}

TEST(PipelinedTrackJoinTest, TwoPhaseByteIdenticalToBarrierBothDirections) {
  // Keys-only tracking (every entry implies count 1) and a fixed broadcast
  // direction: the paper's streaming 2TJ pseudocode on the event fabric.
  Workload w = SmallWorkload();
  for (Direction direction : {Direction::kRtoS, Direction::kStoR}) {
    SCOPED_TRACE(direction == Direction::kRtoS ? "R->S" : "S->R");
    ExpectPipelinedMatchesBarrier(w, BaseConfig(), TrackJoinVersion::k2Phase,
                                  direction);
  }
  Result<JoinResult> r_to_s = TryRunPipelinedTrackJoin(
      w.r, w.s, BaseConfig(), TrackJoinVersion::k2Phase, Direction::kRtoS);
  Result<JoinResult> s_to_r = TryRunPipelinedTrackJoin(
      w.r, w.s, BaseConfig(), TrackJoinVersion::k2Phase, Direction::kStoR);
  ASSERT_TRUE(r_to_s.ok());
  ASSERT_TRUE(s_to_r.ok());
  EXPECT_EQ(r_to_s->profile.algorithm, "2tj-r-p");
  EXPECT_EQ(s_to_r->profile.algorithm, "2tj-s-p");
}

TEST(PipelinedTrackJoinTest, ThreePhaseByteIdenticalToBarrier) {
  ExpectPipelinedMatchesBarrier(SmallWorkload(), BaseConfig(),
                                TrackJoinVersion::k3Phase);
}

/// True when some key of the audited run migrated, so that broadcast rows
/// met migrated rows: the one join path where both kinds of received run
/// meet.
bool AnyKeyMigrates(const ScheduleAuditLog& audit) {
  const std::vector<KeyScheduleAudit> keys = audit.Collect();
  return std::any_of(keys.begin(), keys.end(),
                     [](const KeyScheduleAudit& key) {
                       return key.chosen_migrations > 0;
                     });
}

TEST(PipelinedTrackJoinTest, FourPhaseByteIdenticalToBarrier) {
  const Workload w = SmallWorkload();
  ScheduleAuditLog audit;
  JoinConfig config = BaseConfig();
  config.schedule_audit = &audit;
  ASSERT_TRUE(
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase).ok());
  EXPECT_TRUE(AnyKeyMigrates(audit));
  ExpectPipelinedMatchesBarrier(w, BaseConfig(), TrackJoinVersion::k4Phase);
}

TEST(PipelinedTrackJoinTest, FourPhaseWithBalanceByteIdentical) {
  JoinConfig config = BaseConfig();
  config.balance_loads = true;
  ExpectPipelinedMatchesBarrier(SmallWorkload(), config,
                                TrackJoinVersion::k4Phase);
}

TEST(PipelinedTrackJoinTest, FourPhaseWithHotSplitByteIdentical) {
  // Skewed repeats make real hot keys; the split decisions (and the
  // fragment instruction groups, which must never be sliced mid-group)
  // have to come out identical to the barrier run's.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 400;
  spec.r_multiplicity = 6;
  spec.s_multiplicity = 12;
  spec.r_pattern = {3, 2, 1};
  spec.s_pattern = {6, 4, 2};
  Workload w = GenerateWorkload(spec);
  JoinConfig config = BaseConfig();
  config.balance_loads = true;
  config.hot_key_threshold = 36;
  config.hot_key_max_split = 3;
  ExpectPipelinedMatchesBarrier(w, config, TrackJoinVersion::k4Phase);
}

TEST(PipelinedTrackJoinTest, DrrPolicyByteIdenticalToBarrier) {
  // The egress scheduler only reorders modeled NIC time; the full
  // equivalence battery (traffic, checksum, audits) must hold under DRR
  // exactly as under FIFO, for both pipelined variants.
  JoinConfig config = BaseConfig();
  config.pipeline.drr = true;
  ExpectPipelinedMatchesBarrier(SmallWorkload(), config,
                                TrackJoinVersion::k3Phase);
  ExpectPipelinedMatchesBarrier(SmallWorkload(), config,
                                TrackJoinVersion::k4Phase);
}

TEST(PipelinedTrackJoinTest, DrrHotSplitTinyQuantumByteIdentical) {
  // Hot-split fragment groups under a sub-chunk quantum: heavy per-key
  // bursts cross the scheduler in many top-up rounds, and the split
  // decisions must still match the barrier run's exactly.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 400;
  spec.r_multiplicity = 6;
  spec.s_multiplicity = 12;
  spec.r_pattern = {3, 2, 1};
  spec.s_pattern = {6, 4, 2};
  Workload w = GenerateWorkload(spec);
  JoinConfig config = BaseConfig();
  config.hot_key_threshold = 36;
  config.hot_key_max_split = 3;
  config.pipeline.drr = true;
  config.pipeline.drr_quantum_bytes = 64;
  ExpectPipelinedMatchesBarrier(w, config, TrackJoinVersion::k4Phase);
}

TEST(PipelinedTrackJoinTest, FifoAndDrrShareLedgersButNotTiming) {
  // A/B on identical inputs: the two policies must agree on every byte
  // ledger and the barrier reference (pure per-stage accounting) while
  // being free to disagree on the event-driven makespan.
  Workload w = SmallWorkload();
  JoinConfig fifo_config = BaseConfig();
  JoinConfig drr_config = BaseConfig();
  drr_config.pipeline.drr = true;
  Result<JoinResult> fifo =
      TryRunPipelinedTrackJoin(w.r, w.s, fifo_config, TrackJoinVersion::k4Phase);
  Result<JoinResult> drr =
      TryRunPipelinedTrackJoin(w.r, w.s, drr_config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(fifo.ok()) << fifo.status().ToString();
  ASSERT_TRUE(drr.ok()) << drr.status().ToString();
  EXPECT_TRUE(drr->traffic == fifo->traffic);
  EXPECT_TRUE(drr->checksum == fifo->checksum);
  EXPECT_EQ(drr->output_rows, fifo->output_rows);
  EXPECT_EQ(drr->node_output_rows, fifo->node_output_rows);
  EXPECT_DOUBLE_EQ(drr->barrier_makespan_seconds,
                   fifo->barrier_makespan_seconds);
  EXPECT_GT(drr->makespan_seconds, 0.0);
}

TEST(PipelinedTrackJoinTest, DirectionStoRByteIdentical) {
  Workload w = SmallWorkload();
  JoinConfig config = BaseConfig();
  Result<JoinResult> barrier = TryRunTrackJoin(
      w.r, w.s, config, TrackJoinVersion::k3Phase, Direction::kStoR);
  Result<JoinResult> pipelined = TryRunPipelinedTrackJoin(
      w.r, w.s, config, TrackJoinVersion::k3Phase, Direction::kStoR);
  ASSERT_TRUE(barrier.ok());
  ASSERT_TRUE(pipelined.ok());
  EXPECT_TRUE(pipelined->traffic == barrier->traffic);
  EXPECT_TRUE(pipelined->checksum == barrier->checksum);
}

TEST(PipelinedTrackJoinTest, MaterializedOutputMatchesCardinalityAndDigest) {
  Workload w = SmallWorkload();
  JoinConfig config = BaseConfig();
  config.materialize = true;
  Result<JoinResult> barrier =
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  Result<JoinResult> pipelined =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(barrier.ok());
  ASSERT_TRUE(pipelined.ok());
  ASSERT_TRUE(pipelined->output.has_value());
  ASSERT_TRUE(barrier->output.has_value());
  // Pairs join at the same nodes; within a node the pipelined driver emits
  // them in arrival order, so compare per-node cardinalities plus the
  // order-independent checksum, not raw bytes.
  ASSERT_EQ(pipelined->output->num_nodes(), barrier->output->num_nodes());
  for (uint32_t node = 0; node < barrier->output->num_nodes(); ++node) {
    EXPECT_EQ(pipelined->output->node(node).size(),
              barrier->output->node(node).size())
        << "node " << node;
  }
  EXPECT_TRUE(pipelined->checksum == barrier->checksum);
}

/// A node's materialized <key | payloadR | payloadS> rows, sorted.
std::vector<std::vector<uint8_t>> SortedRows(const TupleBlock& block) {
  std::vector<std::vector<uint8_t>> rows(block.size());
  for (uint64_t row = 0; row < block.size(); ++row) {
    for (int byte = 7; byte >= 0; --byte) {
      rows[row].push_back(static_cast<uint8_t>(block.Key(row) >> (8 * byte)));
    }
    const uint8_t* payload = block.Payload(row);
    rows[row].insert(rows[row].end(), payload,
                     payload + block.payload_width());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(PipelinedTrackJoinTest, ZipfHotSplitTinyChunksMaterializeBarrierRows) {
  // Skewed keys that migrate and split, one- or two-row chunks, so hot keys
  // arrive over many small runs of both kinds: each node must materialize
  // exactly the barrier's rows, in any order, under either egress policy.
  ZipfWorkloadSpec spec;
  spec.num_nodes = 4;
  spec.key_domain = 300;
  spec.r_rows = 1000;
  spec.s_rows = 1200;
  spec.r_theta = 0.8;
  spec.s_theta = 0.8;
  spec.r_payload = 4;
  spec.s_payload = 6;
  const Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));
  JoinConfig config = BaseConfig();
  config.materialize = true;
  config.hot_key_threshold = 40;
  config.hot_key_max_split = 3;
  config.pipeline.chunk_bytes = 16;
  ScheduleAuditLog audit;
  JoinConfig barrier_config = config;
  barrier_config.schedule_audit = &audit;
  const JoinResult barrier = ValueOrDie(
      TryRunTrackJoin(w.r, w.s, barrier_config, TrackJoinVersion::k4Phase));
  EXPECT_TRUE(AnyKeyMigrates(audit));
  const std::vector<KeyScheduleAudit> keys = audit.Collect();
  EXPECT_TRUE(std::any_of(
      keys.begin(), keys.end(),
      [](const KeyScheduleAudit& key) { return key.chosen_split > 0; }));
  for (bool drr : {false, true}) {
    SCOPED_TRACE(drr ? "drr" : "fifo");
    config.pipeline.drr = drr;
    const JoinResult pipelined = ValueOrDie(TryRunPipelinedTrackJoin(
        w.r, w.s, config, TrackJoinVersion::k4Phase));
    EXPECT_EQ(pipelined.output_rows, w.expected_output_rows);
    EXPECT_TRUE(pipelined.checksum == barrier.checksum);
    for (uint32_t node = 0; node < spec.num_nodes; ++node) {
      EXPECT_EQ(SortedRows(pipelined.output->node(node)),
                SortedRows(barrier.output->node(node)))
          << "node " << node;
    }
  }
}

// A data chunk that is not a key-ascending run of whole rows fails the
// pipelined run with Corruption, as barrier phase 8 does, instead of
// aborting in the join. Node 1's R partition carries 3-byte payloads where
// the table declares 2, and S rows are too wide to move, so node 1's R rows
// of key 7 travel to node 2 as one chunk. One such row is not a whole row;
// six of them make seven rows whose misread keys descend.
TEST(PipelinedTrackJoinTest, MalformedDataChunkFailsWithCorruption) {
  const uint8_t payload[64] = {0xff, 0xff, 0xff};
  for (int rows : {1, 6}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    PartitionedTable r("R", 3, 2);
    PartitionedTable s("S", 3, 64);
    r.node(1) = TupleBlock(3);
    for (int row = 0; row < rows; ++row) r.node(1).Append(7, payload);
    s.node(2).Append(7, payload);
    const std::string error =
        rows == 1 ? "not a multiple of row size" : "descends";
    for (TrackJoinVersion version :
         {TrackJoinVersion::k2Phase, TrackJoinVersion::k3Phase,
          TrackJoinVersion::k4Phase}) {
      for (bool pipelined : {false, true}) {
        const Result<JoinResult> result =
            pipelined ? TryRunPipelinedTrackJoin(r, s, BaseConfig(), version)
                      : TryRunTrackJoin(r, s, BaseConfig(), version);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
            << result.status().ToString();
        EXPECT_NE(result.status().ToString().find(error), std::string::npos)
            << result.status().ToString();
      }
    }
  }
}

TEST(PipelinedTrackJoinTest, SingleKeyTablesAreOneRange) {
  // Every tuple shares one key: the whole run is a single key range whose
  // final frontier batch does all the work, and the key is hot enough to
  // split when asked.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 1;
  spec.r_multiplicity = 48;
  spec.s_multiplicity = 64;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = BaseConfig();
  ExpectPipelinedMatchesBarrier(w, config, TrackJoinVersion::k3Phase);
  config.hot_key_threshold = 2;
  config.hot_key_max_split = 4;
  ExpectPipelinedMatchesBarrier(w, config, TrackJoinVersion::k4Phase);
}

TEST(PipelinedTrackJoinTest, EmptyInputsTerminate) {
  WorkloadSpec spec;
  spec.num_nodes = 3;
  spec.matched_keys = 0;
  Workload w = GenerateWorkload(spec);
  for (TrackJoinVersion version :
       {TrackJoinVersion::k2Phase, TrackJoinVersion::k4Phase}) {
    Result<JoinResult> pipelined =
        TryRunPipelinedTrackJoin(w.r, w.s, BaseConfig(), version);
    ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
    EXPECT_EQ(pipelined->output_rows, 0u);
    EXPECT_EQ(pipelined->traffic.TotalNetworkBytes(), 0u);
  }
}

TEST(PipelinedTrackJoinTest, TinyChunksAndInboxBudgetStayByteIdentical) {
  // Aggressive slicing (256-byte chunks) and a starved inbox (one chunk of
  // window per link) maximize credit stalls; results must not move.
  Workload w = SmallWorkload();
  JoinConfig config = BaseConfig();
  config.pipeline.chunk_bytes = 256;
  config.pipeline.inbox_budget_bytes = 256 * 4;
  ExpectPipelinedMatchesBarrier(w, config, TrackJoinVersion::k4Phase);
  // 2TJ across chunk sizes from below one entry (every entry its own
  // chunk) to above most per-link messages (one chunk per stream).
  for (uint64_t chunk : {1u, 64u, 256u, 4096u}) {
    for (Direction direction : {Direction::kRtoS, Direction::kStoR}) {
      SCOPED_TRACE("2tj chunk=" + std::to_string(chunk));
      config.pipeline.chunk_bytes = chunk;
      config.pipeline.inbox_budget_bytes = chunk * 4;
      ExpectPipelinedMatchesBarrier(w, config, TrackJoinVersion::k2Phase,
                                    direction);
    }
  }
}

// Benchmark-shaped inputs: a real workload on 8 nodes, in original and
// shuffled placement, pipelined 4TJ with DRR egress at the default chunk
// size and at one entry per chunk. Workload X migrates no keys, so no
// broadcast chunk meets a migrated run; Y's do, mid-stream. One-entry
// chunks start a fresh holder cursor and joiner view for every entry.
void ExpectRealWorkloadByteIdentical(const RealJoinSpec& spec,
                                     uint64_t divisor, bool migrates) {
  JoinConfig config;
  config.key_bytes = spec.impl_key_bytes;
  config.count_bytes = spec.impl_count_bytes;
  config.node_bytes = 1;
  config.pipeline.drr = true;
  for (bool shuffled : {false, true}) {
    Workload w = InstantiateReal(spec, 8, divisor, /*original_order=*/true);
    if (shuffled) {
      ShuffleTable(&w.r, 5);
      ShuffleTable(&w.s, 6);
    }
    const TrafficMatrix traffic =
        ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase))
            .traffic;
    EXPECT_EQ(traffic.NetworkBytes(MessageType::kMigrationDataR) +
                      traffic.NetworkBytes(MessageType::kMigrationDataS) >
                  0,
              migrates);
    for (uint64_t chunk : {PipelineConfig().chunk_bytes, uint64_t{1}}) {
      SCOPED_TRACE(spec.name + (shuffled ? " shuffled" : " original") +
                   " chunk=" + std::to_string(chunk));
      config.pipeline.chunk_bytes = chunk;
      ExpectPipelinedMatchesBarrier(w, config, TrackJoinVersion::k4Phase);
    }
  }
}

TEST(PipelinedTrackJoinTest, WorkloadXShapesByteIdenticalToBarrier) {
  ExpectRealWorkloadByteIdentical(WorkloadX(1), 20000, /*migrates=*/false);
}

TEST(PipelinedTrackJoinTest, WorkloadYShapesByteIdenticalToBarrier) {
  ExpectRealWorkloadByteIdentical(WorkloadY(), 5000, /*migrates=*/true);
}

TEST(PipelinedTrackJoinTest, StragglerSourceSaturatesInboxButResultsHold) {
  // A slow source under a tight inbox budget: every other node races ahead,
  // the straggler's streams gate the frontier, and flow control holds
  // memory bounded. Traffic stays byte-identical (straggling is modeled
  // time only, pristine wire path).
  Workload w = SmallWorkload();
  FaultPolicy policy;
  policy.slow_node = 1;
  policy.slowdown_seconds = 0.5;
  JoinConfig config = BaseConfig();
  config.fault_policy = &policy;
  config.pipeline.chunk_bytes = 512;
  config.pipeline.inbox_budget_bytes = 512 * 4;

  JoinConfig pristine = BaseConfig();
  Result<JoinResult> barrier =
      TryRunTrackJoin(w.r, w.s, pristine, TrackJoinVersion::k4Phase);
  Result<JoinResult> pipelined =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(barrier.ok());
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  EXPECT_TRUE(pipelined->traffic == barrier->traffic);
  EXPECT_TRUE(pipelined->checksum == barrier->checksum);
  // The straggler's late start is on the critical path.
  EXPECT_GT(pipelined->makespan_seconds, 0.5);
}

TEST(PipelinedTrackJoinTest, DeliveryFaultsPreserveOutput) {
  // Under injected delivery faults the wire path retries per chunk; the
  // output must match the pristine barrier run exactly (only retransmit
  // accounting and timing may differ).
  Workload w = SmallWorkload();
  JoinConfig pristine = BaseConfig();
  Result<JoinResult> reference =
      TryRunTrackJoin(w.r, w.s, pristine, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(reference.ok());

  struct Mode {
    const char* name;
    FaultPolicy policy;
  };
  std::vector<Mode> modes(4);
  modes[0].name = "drop";
  modes[0].policy.drop = 0.05;
  modes[1].name = "corrupt";
  modes[1].policy.corrupt = 0.05;
  modes[2].name = "duplicate";
  modes[2].policy.duplicate = 0.05;
  modes[3].name = "reorder";
  modes[3].policy.reorder = 0.05;
  for (const Mode& mode : modes) {
    JoinConfig config = BaseConfig();
    config.fault_policy = &mode.policy;
    config.fault_seed = 17;
    Result<JoinResult> pipelined = TryRunPipelinedTrackJoin(
        w.r, w.s, config, TrackJoinVersion::k4Phase);
    ASSERT_TRUE(pipelined.ok())
        << mode.name << ": " << pipelined.status().ToString();
    EXPECT_TRUE(pipelined->checksum == reference->checksum) << mode.name;
    EXPECT_EQ(pipelined->output_rows, reference->output_rows) << mode.name;
  }
}

TEST(PipelinedTrackJoinTest, CrashFailsBothDriversWithDataLoss) {
  Workload w = SmallWorkload();
  FaultPolicy policy;
  policy.crash_node = 2;
  JoinConfig config = BaseConfig();
  config.fault_policy = &policy;
  Result<JoinResult> barrier =
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  Result<JoinResult> pipelined =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_FALSE(barrier.ok());
  ASSERT_FALSE(pipelined.ok());
  EXPECT_EQ(barrier.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(pipelined.status().code(), StatusCode::kDataLoss);
}

TEST(PipelinedTrackJoinTest, CrashDiagnosticsNameTheDeadNode) {
  Workload w = SmallWorkload();
  FaultPolicy policy;
  policy.crash_node = 0;
  RunDiagnostics diagnostics;
  JoinConfig config = BaseConfig();
  config.fault_policy = &policy;
  config.diagnostics = &diagnostics;
  Result<JoinResult> pipelined =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase);
  ASSERT_FALSE(pipelined.ok());
  ASSERT_EQ(diagnostics.failure.dead_nodes.size(), 1u);
  EXPECT_EQ(diagnostics.failure.dead_nodes[0], 0u);
}

TEST(PipelinedTrackJoinTest, MakespanBeatsBarrierOnStreamingWorkload) {
  // A data-heavy workload with real per-range work: tracking, scheduling
  // and transfers overlap, so the critical path lands well under the
  // barrier-equivalent sum of per-stage maxima.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 40000;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  Workload w = GenerateWorkload(spec);
  Result<JoinResult> pipelined = TryRunPipelinedTrackJoin(
      w.r, w.s, BaseConfig(), TrackJoinVersion::k4Phase);
  ASSERT_TRUE(pipelined.ok());
  EXPECT_LT(pipelined->makespan_seconds,
            0.95 * pipelined->barrier_makespan_seconds);
}

TEST(PipelinedTrackJoinTest, ProfileReportsPipelinedStages) {
  Workload w = SmallWorkload();
  Result<JoinResult> pipelined = TryRunPipelinedTrackJoin(
      w.r, w.s, BaseConfig(), TrackJoinVersion::k4Phase);
  ASSERT_TRUE(pipelined.ok());
  EXPECT_EQ(pipelined->profile.algorithm, "4tj-p");
  EXPECT_EQ(pipelined->profile.run_max_node_bytes,
            pipelined->traffic.MaxNodeBytes());
  std::vector<std::string> names;
  for (const StepRecord& step : pipelined->profile.steps) {
    names.push_back(step.phase);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"source", "track", "schedule",
                                             "transfer", "join"}));
}

// The blame report's reconciliation contract: every (node, resource,
// stage, wait-class) bucket sums back to the makespan to the exact
// microsecond, across versions, cluster sizes, hot-split on/off and fault
// modes. Zero tolerance — modeled time is deterministic.
TEST(PipelinedTrackJoinTest, BlameReconciliationMatrix) {
  FaultPolicy drop_policy;
  drop_policy.drop = 0.05;
  FaultPolicy straggler_policy;
  straggler_policy.slow_node = 1;
  straggler_policy.slowdown_seconds = 0.5;
  struct FaultMode {
    const char* name;
    const FaultPolicy* policy;
  };
  const std::vector<FaultMode> modes = {
      {"pristine", nullptr},
      {"drop", &drop_policy},
      {"straggler", &straggler_policy},
  };
  for (uint32_t nodes : {4u, 8u}) {
    Workload w = SmallWorkload(nodes);
    for (TrackJoinVersion version :
         {TrackJoinVersion::k3Phase, TrackJoinVersion::k4Phase}) {
      for (bool hot_split : {false, true}) {
        if (hot_split && version != TrackJoinVersion::k4Phase) continue;
        for (bool drr : {false, true}) {
        for (const FaultMode& mode : modes) {
          JoinConfig config = BaseConfig();
          config.collect_blame = true;
          config.fault_policy = mode.policy;
          config.fault_seed = 17;
          config.pipeline.drr = drr;
          if (hot_split) {
            config.hot_key_threshold = 6;
            config.hot_key_max_split = 3;
          }
          SCOPED_TRACE(std::string(mode.name) + " nodes=" +
                       std::to_string(nodes) + " version=" +
                       std::to_string(static_cast<int>(version)) +
                       " hot_split=" + std::to_string(hot_split) +
                       " drr=" + std::to_string(drr));
          Result<JoinResult> run =
              TryRunPipelinedTrackJoin(w.r, w.s, config, version);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          ASSERT_TRUE(run->blame.has_value());
          const BlameReport& blame = *run->blame;
          EXPECT_EQ(blame.makespan_us,
                    std::llround(run->makespan_seconds * 1e6));
          EXPECT_EQ(blame.bucket_sum_us, blame.makespan_us);
          EXPECT_TRUE(blame.reconciled);
          int64_t class_sum = 0;
          for (int c = 0; c < kNumBlameClasses; ++c) {
            EXPECT_GE(blame.class_us[c], 0);
            class_sum += blame.class_us[c];
          }
          EXPECT_EQ(class_sum, blame.makespan_us);
          int64_t bucket_sum = 0;
          for (const BlameBucket& bucket : blame.buckets) {
            EXPECT_GT(bucket.micros, 0);
            EXPECT_LT(bucket.node, nodes);
            bucket_sum += bucket.micros;
          }
          EXPECT_EQ(bucket_sum, blame.makespan_us);
          for (const BlameEdge& edge : blame.top_edges) {
            EXPECT_LE(0, edge.start_us);
            EXPECT_LT(edge.start_us, edge.end_us);
            EXPECT_LE(edge.end_us, blame.makespan_us);
          }
          // drr_wait is a DRR-only class by construction.
          if (!drr) {
            EXPECT_EQ(blame.class_us[static_cast<int>(BlameClass::kDrrWait)],
                      0);
          }
        }
        }
      }
    }
  }
}

TEST(PipelinedTrackJoinTest, BlameIsPassiveAndDeterministic) {
  // Collecting blame must not move a single byte or bit of the result
  // (traffic, checksum, makespan), and two identical runs must serialize
  // to byte-identical JSON.
  Workload w = SmallWorkload();
  JoinConfig plain = BaseConfig();
  Result<JoinResult> without =
      TryRunPipelinedTrackJoin(w.r, w.s, plain, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(without.ok());

  JoinConfig config = BaseConfig();
  config.collect_blame = true;
  Result<JoinResult> first =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  Result<JoinResult> second =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->traffic == without->traffic);
  EXPECT_TRUE(first->checksum == without->checksum);
  EXPECT_DOUBLE_EQ(first->makespan_seconds, without->makespan_seconds);
  ASSERT_TRUE(first->blame.has_value());
  ASSERT_TRUE(second->blame.has_value());
  EXPECT_EQ(first->blame->algorithm, "4tj-p");
  EXPECT_EQ(ToJson(*first->blame), ToJson(*second->blame));
}

TEST(PipelinedTrackJoinTest, BlameMakespanSitsInsideCostModelBounds) {
  // Overlap can only help: the blame-reconciled makespan must not exceed
  // the barrier-equivalent time of the run's own steps.
  Workload w = SmallWorkload();
  JoinConfig config = BaseConfig();
  config.collect_blame = true;
  Result<JoinResult> run =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->blame.has_value());
  EXPECT_DOUBLE_EQ(run->barrier_makespan_seconds,
                   BarrierSeconds(run->profile.steps));
  const double makespan = run->blame->makespan_us / 1e6;
  EXPECT_LE(makespan, run->barrier_makespan_seconds * (1 + 1e-9));
  EXPECT_GT(makespan, 0.0);
}

TEST(PipelinedTrackJoinTest, RejectsCompressedWireFormats) {
  Workload w = SmallWorkload();
  JoinConfig delta = BaseConfig();
  delta.delta_tracking = true;
  EXPECT_FALSE(
      TryRunPipelinedTrackJoin(w.r, w.s, delta, TrackJoinVersion::k2Phase)
          .ok());
  EXPECT_FALSE(
      TryRunPipelinedTrackJoin(w.r, w.s, delta, TrackJoinVersion::k3Phase)
          .ok());
  JoinConfig group = BaseConfig();
  group.group_locations = true;
  EXPECT_FALSE(
      TryRunPipelinedTrackJoin(w.r, w.s, group, TrackJoinVersion::k4Phase)
          .ok());
}

}  // namespace
}  // namespace tj
