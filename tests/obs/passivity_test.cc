// Observability must be strictly passive: enabling span tracing and the
// scheduler audit may not change join results, the traffic matrix, or a
// single byte of the per-phase StepProfile — for any algorithm, with or
// without a thread pool driving the phases.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/thread_pool.h"
#include "core/key_column_join.h"
#include "core/schedule.h"
#include "core/track_join.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace tj {
namespace {

const char* const kAlgos[] = {"hj",    "bj-r", "bj-s",   "2tj-r",  "2tj-s",
                              "3tj",   "4tj",  "rid-hj", "late-hj"};

bool IsTrackAlgo(const std::string& name) {
  return name == "2tj-r" || name == "2tj-s" || name == "3tj" || name == "4tj";
}

Workload TestWorkload() {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.seed = 11;
  spec.matched_keys = 300;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_unmatched = 50;
  spec.s_unmatched = 25;
  spec.r_payload = 8;
  spec.s_payload = 8;
  return GenerateWorkload(spec);
}

JoinResult RunAlgo(const std::string& name, const Workload& w,
               const JoinConfig& config) {
  Result<JoinResult> run = [&]() -> Result<JoinResult> {
    if (name == "hj") return TryRunHashJoin(w.r, w.s, config);
    if (name == "bj-r") {
      return TryRunBroadcastJoin(w.r, w.s, config, Direction::kRtoS);
    }
    if (name == "bj-s") {
      return TryRunBroadcastJoin(w.r, w.s, config, Direction::kStoR);
    }
    if (name == "2tj-r") {
      return TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                             Direction::kRtoS);
    }
    if (name == "2tj-s") {
      return TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                             Direction::kStoR);
    }
    if (name == "3tj") {
      return TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase);
    }
    if (name == "4tj") {
      return TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
    }
    if (name == "rid-hj") return TryRunRidHashJoin(w.r, w.s, config);
    return TryRunLateMaterializedHashJoin(w.r, w.s, config);
  }();
  EXPECT_TRUE(run.ok()) << name << ": " << run.status().ToString();
  return std::move(run).value();
}

void ExpectIdentical(const JoinResult& base, const JoinResult& instrumented,
                     const std::string& label) {
  EXPECT_EQ(base.output_rows, instrumented.output_rows) << label;
  EXPECT_EQ(base.checksum.digest(), instrumented.checksum.digest()) << label;
  EXPECT_TRUE(base.traffic == instrumented.traffic) << label;
  ASSERT_EQ(base.profile.steps.size(), instrumented.profile.steps.size())
      << label;
  for (size_t i = 0; i < base.profile.steps.size(); ++i) {
    const StepRecord& a = base.profile.steps[i];
    const StepRecord& b = instrumented.profile.steps[i];
    EXPECT_EQ(a.phase, b.phase) << label;
    EXPECT_EQ(a.network_bytes_by_type, b.network_bytes_by_type)
        << label << " step " << a.phase;
    EXPECT_EQ(a.local_bytes_by_type, b.local_bytes_by_type)
        << label << " step " << a.phase;
    EXPECT_EQ(a.retransmit_bytes_by_type, b.retransmit_bytes_by_type)
        << label << " step " << a.phase;
    EXPECT_EQ(a.goodput_bytes, b.goodput_bytes) << label << " step " << a.phase;
    EXPECT_EQ(a.max_node_bytes, b.max_node_bytes)
        << label << " step " << a.phase;
  }
}

class PassivityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(PassivityTest, TraceAndAuditChangeNoBytes) {
  Workload w = TestWorkload();
  ThreadPool pool(3);
  for (const char* algo : kAlgos) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      JoinConfig base_config;
      base_config.key_bytes = 4;
      base_config.thread_pool = p;
      JoinResult base = RunAlgo(algo, w, base_config);

      JoinConfig instrumented_config = base_config;
      ScheduleAuditLog audit;
      if (IsTrackAlgo(algo)) instrumented_config.schedule_audit = &audit;
      Tracer::Global().Enable();
      JoinResult instrumented = RunAlgo(algo, w, instrumented_config);
      Tracer::Global().Disable();

      const std::string label =
          std::string(algo) + (p != nullptr ? " (pool)" : " (sequential)");
      // Tracing actually happened — the run is instrumented, not skipped —
      // and still nothing observable moved.
      EXPECT_GT(Tracer::Global().EventCount(), 0u) << label;
      Tracer::Global().Clear();
      if (IsTrackAlgo(algo)) {
        EXPECT_FALSE(audit.Collect().empty()) << label;
      }
      ExpectIdentical(base, instrumented, label);
    }
  }
}

TEST_F(PassivityTest, AuditedRunsAreDeterministicAcrossThreadCounts) {
  // The audit's per-node lanes must make concurrent scheduling phases
  // race-free: identical records regardless of pool width.
  Workload w = TestWorkload();
  std::vector<std::vector<KeyScheduleAudit>> collected;
  ThreadPool pool4(4);
  ThreadPool pool2(2);
  for (ThreadPool* p :
       {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    JoinConfig config;
    config.key_bytes = 4;
    config.thread_pool = p;
    ScheduleAuditLog audit;
    config.schedule_audit = &audit;
    RunAlgo("4tj", w, config);
    collected.push_back(audit.Collect());
  }
  ASSERT_EQ(collected[0].size(), collected[1].size());
  ASSERT_EQ(collected[0].size(), collected[2].size());
  for (size_t i = 0; i < collected[0].size(); ++i) {
    for (size_t v = 1; v < collected.size(); ++v) {
      EXPECT_EQ(collected[0][i].key, collected[v][i].key);
      EXPECT_EQ(collected[0][i].chosen_cost, collected[v][i].chosen_cost);
      EXPECT_EQ(collected[0][i].cls, collected[v][i].cls);
      EXPECT_EQ(collected[0][i].chosen_migrations,
                collected[v][i].chosen_migrations);
    }
  }
}

}  // namespace
}  // namespace tj
