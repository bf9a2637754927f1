// Egress-scheduler policy tests for the pipelined fabric: FIFO-equivalence
// of the DRR policy when there is nothing to reorder (a single destination,
// or an effectively infinite quantum with no ingress contention), DRR
// fairness across competing destinations (quantum exactness, no starvation,
// deterministic round order), the head-of-line kill the policy exists for,
// and crash-mode credit return through the per-destination queues.
#include "net/pipelined_fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  // Wide-open credit windows: these tests isolate the egress scheduler, so
  // the link FIFOs must never be the binding constraint.
  params.inbox_budget_bytes = uint64_t{1} << 20;
  return params;
}

/// The (chunk payload bytes, wire_start) service order on node `src`'s
/// egress NIC, in transmission order. Local chunks never occupy the NIC.
std::vector<std::pair<uint64_t, double>> ServiceOrder(
    const PipelinedFabric& fabric, uint32_t src) {
  std::vector<std::pair<double, uint64_t>> starts;
  const auto& timings = fabric.chunk_timings();
  for (size_t i = 0; i < timings.size(); ++i) {
    if (timings[i].src != src || timings[i].local) continue;
    starts.emplace_back(timings[i].wire_start, i);
  }
  std::sort(starts.begin(), starts.end());
  std::vector<std::pair<uint64_t, double>> order;
  for (const auto& [start, index] : starts) {
    order.emplace_back(index, start);
  }
  return order;
}

/// Destinations of node `src`'s transfers in NIC service order.
std::vector<uint32_t> ServiceDsts(const PipelinedFabric& fabric,
                                  uint32_t src) {
  std::vector<uint32_t> dsts;
  for (const auto& [index, start] : ServiceOrder(fabric, src)) {
    dsts.push_back(fabric.chunk_timings()[index].dst);
  }
  return dsts;
}

struct RunShape {
  double makespan = 0;
  std::vector<double> wire_starts;  // Indexed by chunk.
  std::vector<double> arrivals;
};

/// One sender streams `per_dst` chunks to every other node, interleaving
/// destinations in send order; returns the run's timing shape.
RunShape FanOutRun(PipelinedFabric::Params params, uint32_t per_dst) {
  PipelinedFabric fabric(params);
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    fabric.ChargeCpuBytes(chunk.data.size());
    return Status::OK();
  });
  const uint32_t n = params.num_nodes;
  fabric.Post(0, "send", "s", [&, n, per_dst] {
    for (uint32_t round = 0; round < per_dst; ++round) {
      for (uint32_t dst = 1; dst < n; ++dst) {
        fabric.SendChunk(0, dst, MessageType::kDataR, Bytes(64),
                         /*eos=*/round + 1 == per_dst);
      }
    }
    return Status::OK();
  });
  EXPECT_TRUE(fabric.Run().ok());
  RunShape shape;
  shape.makespan = fabric.makespan_seconds();
  for (const auto& timing : fabric.chunk_timings()) {
    shape.wire_starts.push_back(timing.wire_start);
    shape.arrivals.push_back(timing.arrival);
  }
  return shape;
}

TEST(EgressSchedTest, SingleDestinationDrrMatchesFifoEventForEvent) {
  // With one destination there is exactly one egress queue, so DRR has
  // nothing to arbitrate: any quantum must reproduce FIFO timing exactly.
  PipelinedFabric::Params fifo = SmallParams(2);
  fifo.egress_policy = EgressSchedPolicy::kFifo;
  const RunShape baseline = FanOutRun(fifo, /*per_dst=*/4);
  for (uint64_t quantum : {uint64_t{1}, uint64_t{64}, uint64_t{1} << 40}) {
    PipelinedFabric::Params drr = SmallParams(2);
    drr.egress_policy = EgressSchedPolicy::kDrr;
    drr.drr_quantum_bytes = quantum;
    const RunShape shape = FanOutRun(drr, /*per_dst=*/4);
    EXPECT_DOUBLE_EQ(shape.makespan, baseline.makespan)
        << "quantum=" << quantum;
    ASSERT_EQ(shape.wire_starts.size(), baseline.wire_starts.size());
    for (size_t i = 0; i < shape.wire_starts.size(); ++i) {
      EXPECT_DOUBLE_EQ(shape.wire_starts[i], baseline.wire_starts[i])
          << "chunk " << i << " quantum=" << quantum;
      EXPECT_DOUBLE_EQ(shape.arrivals[i], baseline.arrivals[i])
          << "chunk " << i << " quantum=" << quantum;
    }
  }
}

TEST(EgressSchedTest, InfiniteQuantumMatchesFifoAcrossDestinations) {
  // One sender fanning out to three destinations: with a single source
  // there is no ingress contention, and an effectively infinite quantum
  // makes every backlogged queue eligible after one top-up — ties break
  // oldest-grant-first, i.e. global FIFO order.
  PipelinedFabric::Params fifo = SmallParams(4);
  fifo.egress_policy = EgressSchedPolicy::kFifo;
  const RunShape baseline = FanOutRun(fifo, /*per_dst=*/3);
  PipelinedFabric::Params drr = SmallParams(4);
  drr.egress_policy = EgressSchedPolicy::kDrr;
  drr.drr_quantum_bytes = uint64_t{1} << 40;
  const RunShape shape = FanOutRun(drr, /*per_dst=*/3);
  EXPECT_DOUBLE_EQ(shape.makespan, baseline.makespan);
  ASSERT_EQ(shape.wire_starts.size(), baseline.wire_starts.size());
  for (size_t i = 0; i < shape.wire_starts.size(); ++i) {
    EXPECT_DOUBLE_EQ(shape.wire_starts[i], baseline.wire_starts[i])
        << "chunk " << i;
    EXPECT_DOUBLE_EQ(shape.arrivals[i], baseline.arrivals[i]) << "chunk " << i;
  }
}

TEST(EgressSchedTest, OneChunkQuantumRoundRobinsBackloggedDestinations) {
  // Bursty send order (all of d1, then d2, then d3) with a one-chunk
  // quantum: FIFO drains the burst in send order; DRR's top-up rounds
  // rotate the NIC across the backlogged queues instead.
  auto run = [](EgressSchedPolicy policy) {
    PipelinedFabric::Params params = SmallParams(4);
    params.egress_policy = policy;
    params.drr_quantum_bytes = 64;
    PipelinedFabric fabric(params);
    fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
      return Status::OK();
    });
    fabric.Post(0, "send", "s", [&] {
      for (uint32_t dst = 1; dst <= 3; ++dst) {
        for (int i = 0; i < 3; ++i) {
          fabric.SendChunk(0, dst, MessageType::kDataR, Bytes(64),
                           /*eos=*/i == 2);
        }
      }
      return Status::OK();
    });
    EXPECT_TRUE(fabric.Run().ok());
    return ServiceDsts(fabric, 0);
  };
  EXPECT_EQ(run(EgressSchedPolicy::kFifo),
            (std::vector<uint32_t>{1, 1, 1, 2, 2, 2, 3, 3, 3}));
  // DRR: the first pick arrives while only d1 is backlogged; every later
  // round tops up all three queues with one chunk of eligibility, and the
  // oldest-grant tie-break walks them in destination order — so after the
  // head start no destination is ever served twice before the others.
  const std::vector<uint32_t> drr_order = run(EgressSchedPolicy::kDrr);
  ASSERT_EQ(drr_order.size(), 9u);
  for (size_t i = 1; i + 2 < drr_order.size(); i += 3) {
    std::vector<uint32_t> round(drr_order.begin() + i,
                                drr_order.begin() + i + 3);
    std::sort(round.begin(), round.end());
    EXPECT_EQ(round, (std::vector<uint32_t>{1, 2, 3})) << "round at " << i;
  }
}

TEST(EgressSchedTest, QuantumAccumulatesForOversizedChunksWithoutStarvation) {
  // d1's chunks are 3x the quantum: its queue must accumulate deficit over
  // three top-up rounds per chunk while d2/d3 keep transmitting — byte
  // shares equalize and the oversized flow is never starved. The whole
  // schedule is deterministic; pin it exactly (and pin determinism by
  // running twice).
  auto run = [] {
    PipelinedFabric::Params params = SmallParams(4);
    params.egress_policy = EgressSchedPolicy::kDrr;
    params.drr_quantum_bytes = 64;
    PipelinedFabric fabric(params);
    fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
      return Status::OK();
    });
    fabric.Post(0, "send", "s", [&] {
      for (int i = 0; i < 3; ++i) {
        fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(192), i == 2);
        fabric.SendChunk(0, 2, MessageType::kDataR, Bytes(64), i == 2);
        fabric.SendChunk(0, 3, MessageType::kDataR, Bytes(64), i == 2);
      }
      return Status::OK();
    });
    EXPECT_TRUE(fabric.Run().ok());
    return ServiceDsts(fabric, 0);
  };
  const std::vector<uint32_t> order = run();
  EXPECT_EQ(order, run());  // Deterministic round order.
  // Exact schedule: d1 jumps the line at t=0 (only backlogged queue, so
  // top-up rounds accumulate its 3-quantum deficit immediately); each
  // later 192-byte service needs three top-up rounds, during which d2 and
  // d3 each transmit up to one chunk per round — so d1 transmits 192 bytes
  // for every 64+64 of d2+d3 and byte shares equalize.
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 2, 3, 2, 3, 1, 2, 3, 1}));
  // Starvation bound: between consecutive oversized services at most
  // ceil(192/64) = 3 top-up rounds x 2 other destinations elapse.
  std::vector<size_t> d1_positions;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 1) d1_positions.push_back(i);
  }
  ASSERT_EQ(d1_positions.size(), 3u);
  for (size_t i = 1; i < d1_positions.size(); ++i) {
    EXPECT_LE(d1_positions[i] - d1_positions[i - 1], 6u)
        << "oversized flow starved between services";
  }
}

TEST(EgressSchedTest, BusyIngressDoesNotHoldTheEgressHostage) {
  // The head-of-line scenario the policy exists for: node 2 occupies node
  // 1's ingress with a long transfer; node 0 then has a chunk for node 1
  // (blocked) ahead of a chunk for node 3 (idle link). FIFO reserves the
  // egress for the blocked chunk; DRR skips it and serves node 3 now.
  auto run = [](EgressSchedPolicy policy) {
    PipelinedFabric::Params params = SmallParams(4);
    params.egress_policy = policy;
    PipelinedFabric fabric(params);
    fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
      return Status::OK();
    });
    fabric.Post(2, "occupy", "o", [&] {
      fabric.SendChunk(2, 1, MessageType::kDataR, Bytes(640), /*eos=*/true);
      return Status::OK();
    });
    fabric.Post(0, "send", "s", [&] {
      fabric.ChargeCpuBytes(10);  // Finish at 0.1, after the occupier.
      fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/true);
      fabric.SendChunk(0, 3, MessageType::kDataR, Bytes(64), /*eos=*/true);
      return Status::OK();
    });
    EXPECT_TRUE(fabric.Run().ok());
    return fabric;
  };

  const PipelinedFabric fifo = run(EgressSchedPolicy::kFifo);
  const PipelinedFabric drr = run(EgressSchedPolicy::kDrr);
  // Identify node 0's two chunks by destination.
  auto chunk_to = [](const PipelinedFabric& fabric, uint32_t src,
                     uint32_t dst) {
    for (const auto& timing : fabric.chunk_timings()) {
      if (timing.src == src && timing.dst == dst) return timing;
    }
    ADD_FAILURE() << "chunk " << src << "->" << dst << " missing";
    return PipelinedFabric::ChunkTiming{};
  };
  // FIFO: the occupier holds ingress 1 until 6.4; chunk 0->1 camps on the
  // egress until then, so chunk 0->3 cannot start before 7.04.
  EXPECT_NEAR(chunk_to(fifo, 0, 3).wire_start, 7.04, 1e-9);
  EXPECT_TRUE(chunk_to(fifo, 0, 3).egress_hol);
  // DRR: chunk 0->3 goes out the moment the sender finishes; chunk 0->1
  // waits only for its own destination's ingress.
  EXPECT_NEAR(chunk_to(drr, 0, 3).wire_start, 0.1, 1e-9);
  EXPECT_NEAR(chunk_to(drr, 0, 1).wire_start, 6.4, 1e-9);
  EXPECT_LT(drr.makespan_seconds(), fifo.makespan_seconds());
  // Both policies moved identical bytes.
  EXPECT_TRUE(drr.traffic() == fifo.traffic());
}

TEST(EgressSchedTest, DrrRecordsPiecewiseWaitMarks) {
  // Same scenario: the 0->1 chunk's NIC wait decomposes into an egress-HOL
  // span (the NIC busy with the 0->3 transfer) followed by an ingress span
  // (NIC free, destination ingress still held by the occupier).
  PipelinedFabric::Params params = SmallParams(4);
  params.egress_policy = EgressSchedPolicy::kDrr;
  PipelinedFabric fabric(params);
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk&) {
    return Status::OK();
  });
  fabric.Post(2, "occupy", "o", [&] {
    fabric.SendChunk(2, 1, MessageType::kDataR, Bytes(640), /*eos=*/true);
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    fabric.ChargeCpuBytes(10);
    fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), /*eos=*/true);
    fabric.SendChunk(0, 3, MessageType::kDataR, Bytes(64), /*eos=*/true);
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  using EgressWait = PipelinedFabric::ChunkTiming::EgressWait;
  for (const auto& timing : fabric.chunk_timings()) {
    if (timing.src != 0 || timing.dst != 1) continue;
    ASSERT_GE(timing.egress_marks.size(), 2u);
    // First mark anchors exactly at the grant; marks strictly increase.
    EXPECT_DOUBLE_EQ(timing.egress_marks.front().first, timing.grant);
    for (size_t i = 1; i < timing.egress_marks.size(); ++i) {
      EXPECT_LT(timing.egress_marks[i - 1].first,
                timing.egress_marks[i].first);
    }
    EXPECT_EQ(timing.egress_marks.front().second, EgressWait::kHol);
    EXPECT_EQ(timing.egress_marks.back().second, EgressWait::kIngress);
    EXPECT_DOUBLE_EQ(timing.egress_clear, timing.wire_start);
  }
}

TEST(EgressSchedTest, CrashedDestinationReturnsCreditThroughDrrQueues) {
  // A crashed destination drops arrivals but still returns link credit;
  // under DRR the dropped transfers flow through the per-destination
  // queues, and traffic to the surviving node is unaffected.
  FaultPolicy policy;
  policy.crash_node = 1;
  PipelinedFabric::Params params = SmallParams(3);
  params.egress_policy = EgressSchedPolicy::kDrr;
  params.fault_policy = &policy;
  // One-chunk windows so a leaked credit would deadlock the second send.
  params.inbox_budget_bytes = 64 * 3;
  PipelinedFabric fabric(params);
  uint64_t survivor_bytes = 0;
  fabric.OnChunk(MessageType::kDataR, "recv", [&](const Chunk& chunk) {
    survivor_bytes += chunk.data.size();
    return Status::OK();
  });
  fabric.Post(0, "send", "s", [&] {
    for (int i = 0; i < 3; ++i) {
      fabric.SendChunk(0, 1, MessageType::kDataR, Bytes(64), i == 2);
      fabric.SendChunk(0, 2, MessageType::kDataR, Bytes(64), i == 2);
    }
    return Status::OK();
  });
  ASSERT_TRUE(fabric.Run().ok());
  EXPECT_TRUE(fabric.node_dead(1));
  EXPECT_EQ(survivor_bytes, 192u);
  // All six chunks launched: nothing deadlocked on the dead node's window.
  // Fault mode frames each 64-byte payload with a 16-byte header.
  EXPECT_EQ(fabric.traffic().TotalNetworkBytes(), 6u * 80u);
}

}  // namespace
}  // namespace tj
