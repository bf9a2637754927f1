// Event-loop and flow-control tests for the pipelined fabric: modeled-time
// arithmetic, per-link credit accounting (stall and resume), oversized
// chunks, EOS without credit, per-stage accounting and the
// barrier-equivalent reference, plus determinism and node-failure modes.
#include "net/pipelined_fabric.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace tj {
namespace {

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

TEST(PipelinedFabricTest, TasksAccumulateModeledCpuTime) {
  PipelinedFabric fabric(SmallParams(1));
  fabric.Post(0, "work", "a", [&] {
    fabric.ChargeCpuBytes(100);  // 1 second.
    return Status::OK();
  });
  fabric.Post(0, "work", "b", [&] {
    fabric.ChargeCpuBytes(50);  // 0.5 seconds, serialized after a.
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_DOUBLE_EQ(fabric.makespan_seconds(), 1.5);
  ASSERT_EQ(fabric.steps().size(), 1u);
  EXPECT_DOUBLE_EQ(fabric.steps()[0].wall_seconds, 1.5);
}

TEST(PipelinedFabricTest, TransferFollowsSendingTaskAndHoldsBothNics) {
  PipelinedFabric fabric(SmallParams(2));
  double handler_bytes = 0;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    handler_bytes += chunk.data.size();
    fabric.ChargeCpuBytes(chunk.data.size());
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.ChargeCpuBytes(100);  // Task runs [0, 1).
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(50), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  // Chain: 1s CPU, then 0.5s wire, then 0.5s handler CPU.
  EXPECT_DOUBLE_EQ(fabric.makespan_seconds(), 2.0);
  EXPECT_EQ(handler_bytes, 50);
  EXPECT_EQ(fabric.traffic().TotalNetworkBytes(), 50u);
}

TEST(PipelinedFabricTest, LocalSendSkipsNicsAndLandsInLocalLedger) {
  PipelinedFabric fabric(SmallParams(2));
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 0, MessageType::kDataR, Bytes(40), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_EQ(fabric.traffic().TotalNetworkBytes(), 0u);
  EXPECT_EQ(fabric.traffic().TotalLocalBytes(), 40u);
  // No NIC time: only the (zero-cost) tasks.
  EXPECT_DOUBLE_EQ(fabric.makespan_seconds(), 0.0);
}

TEST(PipelinedFabricTest, ZeroCreditStallsUntilHandlerCompletesThenResumes) {
  // Window is exactly one 64-byte chunk; the second chunk must wait for
  // the first handler to finish (credit returns at handler completion,
  // bounding receiver inbox memory, not just wire occupancy).
  PipelinedFabric fabric(SmallParams(2));
  std::vector<double> handler_bytes;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    handler_bytes.push_back(static_cast<double>(chunk.data.size()));
    fabric.ChargeCpuBytes(100);  // Each handler takes 1 s.
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(32), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  ASSERT_EQ(handler_bytes.size(), 2u);
  EXPECT_EQ(handler_bytes[0], 64);  // FIFO per stream.
  EXPECT_EQ(handler_bytes[1], 32);
  EXPECT_EQ(fabric.credit_stall_events(), 1u);
  // chunk1 wire [0, 0.64), handler [0.64, 1.64) -> credit back at 1.64;
  // chunk2 wire [1.64, 1.96), handler [1.96, 2.96).
  EXPECT_NEAR(fabric.makespan_seconds(), 2.96, 1e-9);
}

TEST(PipelinedFabricTest, OversizedChunkTakesWholeWindowWithoutDeadlock) {
  PipelinedFabric fabric(SmallParams(2));
  uint64_t received = 0;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    received += chunk.data.size();
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    // 200 bytes > the 64-byte window: admitted anyway (need saturates at
    // the window) or the system would deadlock on large single entries.
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(200), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_EQ(received, 200u);
  EXPECT_EQ(fabric.credit_stall_events(), 0u);
}

TEST(PipelinedFabricTest, ZeroByteEosNeedsNoCredit) {
  // Exhaust the window with an unconsumed chunk, then send a zero-byte
  // EOS: it must still be delivered (stream termination cannot deadlock).
  PipelinedFabric fabric(SmallParams(2));
  int eos_seen = 0;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    if (chunk.eos) ++eos_seen;
    fabric.ChargeCpuBytes(100);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, ByteBuffer{}, /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_EQ(eos_seen, 1);
}

TEST(PipelinedFabricTest, PerStreamOrderSurvivesCreditStalls) {
  // Three chunks through a one-chunk window: arrival order must match send
  // order even though the later two queue on the link FIFO.
  PipelinedFabric fabric(SmallParams(2));
  std::vector<uint64_t> watermarks;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    watermarks.push_back(chunk.watermark);
    fabric.ChargeCpuBytes(10);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    for (uint64_t i = 1; i <= 3; ++i) {
      fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), i == 3, i);
    }
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_EQ(watermarks, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(fabric.credit_stall_events(), 2u);
}

TEST(PipelinedFabricTest, BarrierReferenceSumsStageMaximaAndMakespanBeatsIt) {
  // One producer streams two chunks: the second chunk's wire time overlaps
  // the first chunk's handler, so the pipelined makespan strictly beats
  // the barrier-equivalent sum of per-stage maxima.
  PipelinedFabric::Params params = SmallParams(2);
  params.inbox_budget_bytes = 256 * 2;  // Window fits both chunks.
  PipelinedFabric fabric(params);
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    fabric.ChargeCpuBytes(chunk.data.size());
    return Status::OK();
  });
  fabric.Post(0, "produce", "p", [&] {
    fabric.ChargeCpuBytes(100);  // [0, 1).
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(50), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(50), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  // Event schedule: wire chunk1 [1, 1.5), chunk2 [1.5, 2); handlers
  // [1.5, 2) and [2, 2.5) — chunk2's flight hides under handler1.
  EXPECT_NEAR(fabric.makespan_seconds(), 2.5, 1e-9);
  // Barrier reference: produce (1 s cpu + 1 s for 100 bytes out) + recv
  // (1 s cpu) = 3 s.
  EXPECT_NEAR(BarrierSeconds(fabric.steps()), 3.0, 1e-9);
  EXPECT_LT(fabric.makespan_seconds(), BarrierSeconds(fabric.steps()));
}

TEST(PipelinedFabricTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    PipelinedFabric fabric(SmallParams(3));
    fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
      fabric.ChargeCpuBytes(chunk.data.size());
      return Status::OK();
    });
    for (uint32_t node = 0; node < 3; ++node) {
      fabric.Post(node, "produce", "p", [&, node] {
        fabric.ChargeCpuBytes(30 + node * 7);
        for (uint32_t dst = 0; dst < 3; ++dst) {
          if (dst == node) continue;
          fabric.SendChunk(node, dst, MessageType::kDataR,
                           Bytes(40 + dst * 13), /*eos=*/true);
        }
        return Status::OK();
      });
    }
    EXPECT_TRUE(fabric.Run().ok());
    return fabric.makespan_seconds();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(PipelinedFabricTest, TaskErrorSurfacesWithLabelAndNode) {
  PipelinedFabric fabric(SmallParams(1));
  fabric.Post(0, "work", "exploder", [] {
    return Status::Internal("boom");
  });
  Status status = fabric.Run();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("exploder"), std::string::npos);
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(PipelinedFabricTest, CrashedNodeSkipsTasksAndDropsArrivals) {
  FaultPolicy policy;
  policy.crash_node = 1;
  PipelinedFabric::Params params = SmallParams(2);
  params.fault_policy = &policy;
  PipelinedFabric fabric(params);
  int handled = 0;
  bool dead_task_ran = false;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    ++handled;
    return Status::OK();
  });
  fabric.Post(1, "work", "dead", [&] {
    dead_task_ran = true;
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/false);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());  // Crash itself is not a run error...
  EXPECT_TRUE(fabric.node_dead(1));
  EXPECT_FALSE(dead_task_ran);
  EXPECT_EQ(handled, 0);
  // ...and dropped arrivals return their credit, so both chunks launched
  // (no deadlock on the full window). Fault mode frames each 64-byte
  // payload with a 16-byte header: 2 x 80 bytes.
  EXPECT_EQ(fabric.traffic().TotalNetworkBytes(), 160u);
  ASSERT_EQ(fabric.failure().dead_nodes.size(), 1u);
  EXPECT_EQ(fabric.failure().dead_nodes[0], 1u);
}

TEST(PipelinedFabricTest, SlowNodeStartsItsCpuLate) {
  FaultPolicy policy;
  policy.slow_node = 0;
  policy.slowdown_seconds = 2.0;
  PipelinedFabric::Params params = SmallParams(2);
  params.fault_policy = &policy;
  PipelinedFabric fabric(params);
  fabric.Post(0, "work", "slow", [&] {
    fabric.ChargeCpuBytes(100);
    return Status::OK();
  });
  fabric.Post(1, "work", "fast", [&] {
    fabric.ChargeCpuBytes(100);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_DOUBLE_EQ(fabric.makespan_seconds(), 3.0);  // Straggler: 2 + 1.
}

TEST(PipelinedFabricTest, DropFaultsRetransmitAndAreCountedPerChunk) {
  FaultPolicy policy;
  policy.drop = 0.5;
  policy.max_retries = 64;
  PipelinedFabric::Params params = SmallParams(2);
  params.fault_policy = &policy;
  params.fault_seed = 7;
  PipelinedFabric fabric(params);
  uint64_t received = 0;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    received += chunk.data.size();
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    for (int i = 0; i < 16; ++i) {
      fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(8), i == 15);
    }
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_EQ(received, 128u);  // Every chunk eventually delivered.
  const ReliabilityStats rel = fabric.reliability();
  EXPECT_GT(rel.faults.frames_dropped, 0u);
  EXPECT_GT(rel.retransmitted_frames, 0u);
  EXPECT_GT(fabric.traffic().TotalRetransmitBytes(), 0u);
}

TEST(PipelinedFabricTest, ExhaustedRetriesFailWithDataLossAndLinkReport) {
  FaultPolicy policy;
  policy.drop = 1.0;  // Nothing ever gets through.
  policy.max_retries = 3;
  PipelinedFabric::Params params = SmallParams(2);
  params.fault_policy = &policy;
  PipelinedFabric fabric(params);
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(8), /*eos=*/true);
    return Status::OK();
  });
  Status status = fabric.Run();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  ASSERT_FALSE(fabric.failure().lost_links.empty());
  EXPECT_EQ(fabric.failure().lost_links[0].src, 0u);
  EXPECT_EQ(fabric.failure().lost_links[0].dst, 1u);
}

}  // namespace
}  // namespace tj
