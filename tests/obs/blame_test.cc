// Critical-path blame tests against hand-built pipelined fabrics: every
// scenario's bucket sum must telescope to the modeled makespan exactly
// (microsecond integers, zero tolerance), wait classes must land where the
// scenario puts the contention (credit-exhausted vs head-of-line, egress
// HOL, straggler cpu-queue), and the JSON export must be byte-stable.
#include "obs/blame.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "net/fault_injector.h"
#include "net/pipelined_fabric.h"
#include "obs/metrics.h"

namespace tj {
namespace {

int64_t Micros(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

ByteBuffer Bytes(size_t size) {
  ByteBuffer buf;
  buf.assign(size, 0xAB);
  return buf;
}

PipelinedFabric::Params SmallParams(uint32_t nodes) {
  PipelinedFabric::Params params;
  params.num_nodes = nodes;
  params.cost.cpu_bandwidth_bytes_per_sec = 100.0;  // 1 byte = 10 ms.
  params.cost.net.node_bandwidth_bytes_per_sec = 100.0;
  params.chunk_bytes = 64;
  params.inbox_budget_bytes = 64 * nodes;  // window = 64 bytes per link.
  return params;
}

int64_t ClassUs(const BlameReport& report, BlameClass cls) {
  return report.class_us[static_cast<int>(cls)];
}

void ExpectReconciled(const BlameReport& report,
                      const PipelinedFabric& fabric) {
  EXPECT_EQ(report.makespan_us, Micros(fabric.makespan_seconds()));
  EXPECT_EQ(report.bucket_sum_us, report.makespan_us);
  EXPECT_TRUE(report.reconciled);
  int64_t class_sum = 0;
  for (int c = 0; c < kNumBlameClasses; ++c) class_sum += report.class_us[c];
  EXPECT_EQ(class_sum, report.makespan_us);
  int64_t bucket_sum = 0;
  for (const BlameBucket& bucket : report.buckets) {
    EXPECT_GT(bucket.micros, 0);
    EXPECT_LT(bucket.node, report.num_nodes);
    bucket_sum += bucket.micros;
  }
  EXPECT_EQ(bucket_sum, report.makespan_us);
}

TEST(BlameTest, EmptyFabricReconcilesToZero) {
  PipelinedFabric fabric(SmallParams(2));
  ASSERT_TRUE(fabric.Run().ok());
  BlameReport report = BuildBlameReport(fabric);
  EXPECT_EQ(report.makespan_us, 0);
  EXPECT_EQ(report.bucket_sum_us, 0);
  EXPECT_TRUE(report.reconciled);
  EXPECT_TRUE(report.buckets.empty());
}

TEST(BlameTest, ChainSplitsIntoComputeAndWire) {
  // 1 s sender CPU, 0.5 s wire, 0.5 s handler CPU: the whole 2 s makespan
  // is compute + wire, with zero queueing anywhere.
  PipelinedFabric fabric(SmallParams(2));
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    fabric.ChargeCpuBytes(chunk.data.size());
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.ChargeCpuBytes(100);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(50), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  BlameReport report = BuildBlameReport(fabric);
  ExpectReconciled(report, fabric);
  EXPECT_EQ(report.makespan_us, 2000000);
  EXPECT_EQ(ClassUs(report, BlameClass::kCompute), 1500000);
  EXPECT_EQ(ClassUs(report, BlameClass::kWire), 500000);
  EXPECT_EQ(report.hol_us, 0);
}

TEST(BlameTest, ExhaustedCreditWindowIsChargedToTheLink) {
  // The 64-byte window holds exactly the first chunk; the second sits at
  // the (empty) FIFO head until the first handler finishes, so its wait is
  // credit_exhausted, not head-of-line.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t hol_before =
      metrics.counter("pipeline.credit_stall_hol_total").Value();
  const uint64_t exhausted_before =
      metrics.counter("pipeline.credit_stall_exhausted_total").Value();
  const uint64_t hist_before =
      metrics.histogram("pipeline.credit_stall_seconds").Count();

  PipelinedFabric fabric(SmallParams(2));
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    fabric.ChargeCpuBytes(100);  // Each handler takes 1 s.
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(32), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  // chunk1 wire [0, 0.64), handler [0.64, 1.64); chunk2 granted at 1.64,
  // wire [1.64, 1.96), handler [1.96, 2.96).
  BlameReport report = BuildBlameReport(fabric);
  ExpectReconciled(report, fabric);
  EXPECT_EQ(report.makespan_us, 2960000);
  EXPECT_EQ(ClassUs(report, BlameClass::kCreditExhausted), 1640000);
  EXPECT_EQ(ClassUs(report, BlameClass::kCreditHol), 0);
  EXPECT_EQ(report.hol_us, 0);

  EXPECT_EQ(metrics.counter("pipeline.credit_stall_hol_total").Value(),
            hol_before);
  EXPECT_EQ(metrics.counter("pipeline.credit_stall_exhausted_total").Value(),
            exhausted_before + 1);
  EXPECT_EQ(metrics.histogram("pipeline.credit_stall_seconds").Count(),
            hist_before + 1);
}

TEST(BlameTest, QueuedBehindAnotherChunkIsHeadOfLine) {
  // Three 64-byte chunks into a one-chunk window: the second stalls on an
  // empty queue (exhausted), the third stalls behind it (head-of-line).
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t hol_before =
      metrics.counter("pipeline.credit_stall_hol_total").Value();
  const uint64_t exhausted_before =
      metrics.counter("pipeline.credit_stall_exhausted_total").Value();

  PipelinedFabric fabric(SmallParams(2));
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    fabric.ChargeCpuBytes(100);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_EQ(metrics.counter("pipeline.credit_stall_hol_total").Value(),
            hol_before + 1);
  EXPECT_EQ(metrics.counter("pipeline.credit_stall_exhausted_total").Value(),
            exhausted_before + 1);

  // The last handler chains through the third chunk, whose [admit, head)
  // wait spans the whole first handler turnaround.
  BlameReport report = BuildBlameReport(fabric);
  ExpectReconciled(report, fabric);
  EXPECT_GT(ClassUs(report, BlameClass::kCreditHol), 0);
  EXPECT_GT(report.hol_us, 0);
}

TEST(BlameTest, EgressWaitBehindOtherDestinationIsHol) {
  // One task sends to two different destinations back to back: the second
  // chunk has credit (different link) but finds the egress NIC held by the
  // transfer to the *other* destination — egress head-of-line.
  PipelinedFabric fabric(SmallParams(3));
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    fabric.ChargeCpuBytes(100);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/true);
    fabric.SendChunk(0, 2, MessageType::kDataR, Bytes(64), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  const auto& chunks = fabric.chunk_timings();
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_FALSE(chunks[0].egress_hol);
  EXPECT_TRUE(chunks[1].egress_hol);
  // Root: node 2's handler, behind the second chunk's egress-HOL wait.
  BlameReport report = BuildBlameReport(fabric);
  ExpectReconciled(report, fabric);
  EXPECT_EQ(ClassUs(report, BlameClass::kEgressHol), 640000);
  EXPECT_EQ(report.hol_us, 640000);
}

TEST(BlameTest, DrrQuantumCursorWaitIsChargedAsDrrWait) {
  // DRR with a one-chunk quantum: node 0 sends two 64-byte chunks to node
  // 1 and one 128-byte chunk to node 2. The first d1 chunk is served solo
  // (top-up rounds accumulate only its queue). At its transfer-done the
  // top-up round hands every queue one quantum: d1's front is eligible and
  // wins, but d2's double-size front is still deficit-short — it *lost to
  // the quantum cursor*, which is exactly the drr_wait class. The d2 chunk
  // is the last arrival, so the whole decomposition sits on the critical
  // path:
  //   [0, 0.64)      egress_hol (NIC busy with the first d1 transfer)
  //   [0.64, 1.28)   drr_wait   (ready but deficit-short at the pick)
  //   [1.28, 2.56)   wire
  PipelinedFabric::Params params = SmallParams(3);
  params.egress_policy = EgressSchedPolicy::kDrr;
  params.drr_quantum_bytes = 64;
  params.inbox_budget_bytes = 1 << 20;  // Credit never binds here.
  PipelinedFabric fabric(params);
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/true);
    fabric.SendChunk(0, 2, MessageType::kDataR, Bytes(128), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  BlameReport report = BuildBlameReport(fabric);
  ExpectReconciled(report, fabric);
  EXPECT_EQ(report.makespan_us, 2560000);
  EXPECT_EQ(ClassUs(report, BlameClass::kEgressHol), 640000);
  EXPECT_EQ(ClassUs(report, BlameClass::kDrrWait), 640000);
  EXPECT_EQ(ClassUs(report, BlameClass::kWire), 1280000);
  // drr_wait is quantum-cursor fairness, not head-of-line blocking.
  EXPECT_EQ(report.hol_us, 640000);
}

TEST(BlameTest, StragglerLateStartShowsAsCpuQueue) {
  // A slow node's CPU comes up late: its first task is ready at time zero
  // but waits for the CPU, so the whole delay is cpu_queue on that node.
  FaultPolicy policy;
  policy.slow_node = 1;
  policy.slowdown_seconds = 3.0;
  PipelinedFabric::Params params = SmallParams(2);
  params.fault_policy = &policy;
  PipelinedFabric fabric(params);
  fabric.Post(1, "work", "late", [&] {
    fabric.ChargeCpuBytes(100);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  BlameReport report = BuildBlameReport(fabric);
  ExpectReconciled(report, fabric);
  EXPECT_EQ(report.makespan_us, 4000000);
  EXPECT_EQ(ClassUs(report, BlameClass::kCpuQueue), 3000000);
  EXPECT_EQ(ClassUs(report, BlameClass::kCompute), 1000000);
}

TEST(BlameTest, DeliveryFaultRetriesStayReconciled) {
  // Dropped frames retry inline on the wire; the retry time lands in the
  // wire class and the sum still telescopes exactly.
  FaultPolicy policy;
  policy.drop = 0.3;
  PipelinedFabric::Params params = SmallParams(2);
  params.fault_policy = &policy;
  params.fault_seed = 11;
  PipelinedFabric fabric(params);
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    fabric.ChargeCpuBytes(50);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    for (int i = 0; i < 8; ++i) {
      fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), i == 7);
    }
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  ASSERT_GT(fabric.reliability().faults.frames_dropped, 0u);
  BlameReport report = BuildBlameReport(fabric);
  ExpectReconciled(report, fabric);
  EXPECT_GT(ClassUs(report, BlameClass::kWire), 0);
}

TEST(BlameTest, ReportAndJsonAreDeterministic) {
  auto run = [] {
    PipelinedFabric fabric(SmallParams(3));
    fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
      fabric.ChargeCpuBytes(chunk.data.size());
      return Status::OK();
    });
    for (uint32_t src = 0; src < 3; ++src) {
      fabric.Post(src, "send", "s" + std::to_string(src), [&fabric, src] {
        fabric.ChargeCpuBytes(40 * (src + 1));
        for (uint32_t dst = 0; dst < 3; ++dst) {
          if (dst == src) continue;
          fabric.SendChunk(src, dst, MessageType::kDataR, Bytes(64), true);
        }
        return Status::OK();
      });
    }
    EXPECT_TRUE(fabric.Run().ok());
    BlameReport report = BuildBlameReport(fabric);
    report.algorithm = "test";
    return ToJson(report);
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(BlameTest, TopKTruncatesEdgesButNotBuckets) {
  PipelinedFabric fabric(SmallParams(2));
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    fabric.ChargeCpuBytes(10);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    for (int i = 0; i < 6; ++i) {
      fabric.ChargeCpuBytes(10);
      fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(32), i == 5);
    }
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  BlameReport full = BuildBlameReport(fabric, /*top_k=*/100);
  BlameReport capped = BuildBlameReport(fabric, /*top_k=*/2);
  ASSERT_GT(full.top_edges.size(), 2u);
  EXPECT_EQ(capped.top_edges.size(), 2u);
  // Truncation is presentation only: totals and buckets are untouched.
  EXPECT_EQ(capped.bucket_sum_us, full.bucket_sum_us);
  EXPECT_EQ(capped.buckets.size(), full.buckets.size());
  EXPECT_TRUE(capped.reconciled);
}

TEST(BlameTest, TableRendersHeaderAndClasses) {
  PipelinedFabric fabric(SmallParams(2));
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    fabric.ChargeCpuBytes(50);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  BlameReport report = BuildBlameReport(fabric);
  report.algorithm = "4tj-p";
  const std::string table = ToTable(report);
  EXPECT_NE(table.find("critical-path blame: algorithm=4tj-p"),
            std::string::npos);
  EXPECT_NE(table.find("reconciled=yes"), std::string::npos);
  for (int c = 0; c < kNumBlameClasses; ++c) {
    EXPECT_NE(table.find(BlameClassName(static_cast<BlameClass>(c))),
              std::string::npos);
  }
}

}  // namespace
}  // namespace tj
