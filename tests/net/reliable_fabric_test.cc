// Fault-injecting fabric: the reliable-delivery protocol under every fault
// the injector can produce, plus the zero-fault identity guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fabric.h"

namespace tj {
namespace {

/// One exchange phase: every node sends `per_link` distinct payloads to
/// every other node. Returns what each node received, canonicalized.
struct Exchange {
  TrafficMatrix traffic{0};
  ReliabilityStats reliability;
  std::vector<std::vector<std::pair<uint32_t, ByteBuffer>>> received;
  Status status = Status::OK();
};

Exchange RunExchange(uint32_t n, uint32_t per_link, const FaultPolicy* policy,
                     uint64_t seed, uint32_t phases = 1) {
  Fabric fabric(n);
  if (policy != nullptr) fabric.SetFaultPolicy(*policy, seed);
  Exchange out;
  out.received.resize(n);
  for (uint32_t phase = 0; phase < phases; ++phase) {
    Status status = fabric.RunPhaseReliable(
        "exchange", [&](uint32_t node) -> Status {
          for (uint32_t dst = 0; dst < n; ++dst) {
            if (dst == node) continue;
            for (uint32_t k = 0; k < per_link; ++k) {
              ByteBuffer payload(16 + k, static_cast<uint8_t>(
                                             node * 41 + dst * 7 + k + phase));
              fabric.Send(node, dst, MessageType::kDataR, std::move(payload));
            }
          }
          return Status::OK();
        });
    if (!status.ok()) {
      out.status = status;
      return out;
    }
  }
  Status drain = fabric.RunPhaseReliable("drain", [&](uint32_t node) -> Status {
    for (auto& msg : fabric.TakeInbox(node)) {
      out.received[node].emplace_back(msg.src, std::move(msg.data));
    }
    return Status::OK();
  });
  if (!drain.ok()) {
    out.status = drain;
    return out;
  }
  out.traffic = fabric.traffic();
  out.reliability = fabric.reliability();
  return out;
}

std::vector<std::vector<std::pair<uint32_t, ByteBuffer>>> Canonical(
    std::vector<std::vector<std::pair<uint32_t, ByteBuffer>>> received) {
  for (auto& inbox : received) std::sort(inbox.begin(), inbox.end());
  return received;
}

// --- Zero-fault identity -------------------------------------------------

// An inactive policy must leave the fabric byte-identical to one with no
// policy at all: same inbox contents in the same order, same TrafficMatrix
// (no framing overhead), zero reliability activity.
TEST(ReliableFabricTest, InactivePolicyIsByteIdentical) {
  Exchange plain = RunExchange(4, 3, nullptr, 0);
  FaultPolicy zero;
  ASSERT_FALSE(zero.active());
  Exchange inert = RunExchange(4, 3, &zero, 99);

  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(inert.status.ok());
  EXPECT_EQ(plain.received, inert.received);  // Order included.
  EXPECT_TRUE(plain.traffic == inert.traffic);
  EXPECT_EQ(inert.reliability.retransmitted_frames, 0u);
  EXPECT_EQ(inert.reliability.nack_messages, 0u);
  EXPECT_EQ(inert.traffic.TotalRetransmitBytes(), 0u);
}

// --- Recovery under lossy links ------------------------------------------

TEST(ReliableFabricTest, DropRecoveryDeliversEverything) {
  FaultPolicy policy;
  policy.drop = 0.3;
  Exchange faulty = RunExchange(4, 8, &policy, 1234);
  ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();

  Exchange plain = RunExchange(4, 8, nullptr, 0);
  EXPECT_EQ(Canonical(faulty.received), Canonical(plain.received));
  EXPECT_GT(faulty.reliability.faults.frames_dropped, 0u);
  EXPECT_GT(faulty.reliability.retransmitted_frames, 0u);
  EXPECT_GT(faulty.reliability.nack_messages, 0u);
  EXPECT_GT(faulty.traffic.TotalRetransmitBytes(), 0u);
}

TEST(ReliableFabricTest, CorruptFramesAreRetransmitted) {
  FaultPolicy policy;
  policy.corrupt = 0.25;
  Exchange faulty = RunExchange(4, 8, &policy, 77);
  ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();

  Exchange plain = RunExchange(4, 8, nullptr, 0);
  EXPECT_EQ(Canonical(faulty.received), Canonical(plain.received));
  EXPECT_GT(faulty.reliability.faults.frames_corrupted, 0u);
  EXPECT_GT(faulty.reliability.retransmitted_frames, 0u);
}

TEST(ReliableFabricTest, DuplicatesAreDeduplicated) {
  FaultPolicy policy;
  policy.duplicate = 0.5;
  Exchange faulty = RunExchange(4, 8, &policy, 5);
  ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();

  Exchange plain = RunExchange(4, 8, nullptr, 0);
  // Same messages, once each — the seq numbers absorb the extra copies.
  EXPECT_EQ(Canonical(faulty.received), Canonical(plain.received));
  EXPECT_GT(faulty.reliability.faults.frames_duplicated, 0u);
  // Duplicate copies cost wire bytes but never goodput.
  EXPECT_GT(faulty.traffic.TotalRetransmitBytes(), 0u);
}

TEST(ReliableFabricTest, ReorderKeepsContent) {
  FaultPolicy policy;
  policy.reorder = 1.0;
  Exchange faulty = RunExchange(4, 8, &policy, 21);
  ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();

  Exchange plain = RunExchange(4, 8, nullptr, 0);
  EXPECT_EQ(Canonical(faulty.received), Canonical(plain.received));
  EXPECT_GT(faulty.reliability.faults.messages_reordered, 0u);
}

TEST(ReliableFabricTest, EverythingAtOnceStillExact) {
  FaultPolicy policy;
  policy.drop = 0.1;
  policy.corrupt = 0.05;
  policy.duplicate = 0.1;
  policy.reorder = 0.2;
  policy.max_retries = 32;
  Exchange faulty = RunExchange(5, 6, &policy, 4242, /*phases=*/3);
  ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();

  Exchange plain = RunExchange(5, 6, nullptr, 0, /*phases=*/3);
  EXPECT_EQ(Canonical(faulty.received), Canonical(plain.received));
}

// Goodput accounting never changes under recoverable faults: first-copy
// frame bytes land in the main ledger, every retry/dup/nack byte in the
// retransmit ledger.
TEST(ReliableFabricTest, GoodputIsFaultInvariant) {
  FaultPolicy zero;
  Exchange clean = RunExchange(4, 8, &zero, 9);  // Framed-path baseline? No:
  // inactive policy rides the unframed path, so compare two active runs.
  FaultPolicy calm;
  calm.drop = 1e-9;  // Active, but will essentially never fire.
  Exchange framed = RunExchange(4, 8, &calm, 9);
  FaultPolicy lossy;
  lossy.drop = 0.3;
  Exchange noisy = RunExchange(4, 8, &lossy, 9);
  ASSERT_TRUE(framed.status.ok());
  ASSERT_TRUE(noisy.status.ok());
  EXPECT_EQ(framed.traffic.TotalNetworkBytes(),
            noisy.traffic.TotalNetworkBytes());
  EXPECT_GT(noisy.traffic.TotalRetransmitBytes(),
            framed.traffic.TotalRetransmitBytes());
  EXPECT_GT(clean.traffic.TotalNetworkBytes(), 0u);
}

// --- Unrecoverable faults -------------------------------------------------

TEST(ReliableFabricTest, RetryBudgetExhaustionIsDataLoss) {
  FaultPolicy policy;
  policy.drop = 1.0;  // Every copy of every frame dies.
  policy.max_retries = 2;
  Exchange faulty = RunExchange(3, 2, &policy, 8);
  ASSERT_FALSE(faulty.status.ok());
  EXPECT_EQ(faulty.status.code(), StatusCode::kDataLoss);
  // The error names the phase for the operator.
  EXPECT_NE(faulty.status.ToString().find("exchange"), std::string::npos)
      << faulty.status.ToString();
}

TEST(ReliableFabricTest, CrashFaultFailsThePhase) {
  FaultPolicy policy;
  policy.crash_node = 1;
  policy.crash_phase = 0;
  Exchange faulty = RunExchange(3, 2, &policy, 8);
  ASSERT_FALSE(faulty.status.ok());
  EXPECT_EQ(faulty.status.code(), StatusCode::kDataLoss);
  EXPECT_NE(faulty.status.ToString().find("crashed"), std::string::npos);
}

TEST(ReliableFabricTest, CrashAtLaterPhaseSucceedsUntilThen) {
  FaultPolicy policy;
  policy.crash_node = 2;
  policy.crash_phase = 1;
  Fabric fabric(3);
  fabric.SetFaultPolicy(policy, 3);
  Status first = fabric.RunPhaseReliable("p0", [&](uint32_t node) -> Status {
    fabric.Send(node, (node + 1) % 3, MessageType::kDataR, ByteBuffer{1});
    return Status::OK();
  });
  EXPECT_TRUE(first.ok()) << first.ToString();
  Status second =
      fabric.RunPhaseReliable("p1", [&](uint32_t) { return Status::OK(); });
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kDataLoss);
  EXPECT_NE(second.ToString().find("p1"), std::string::npos);
}

TEST(ReliableFabricTest, NodeErrorPropagatesWithPhaseName) {
  Fabric fabric(2);
  FaultPolicy policy;
  policy.corrupt = 0.01;
  fabric.SetFaultPolicy(policy, 1);
  Status status = fabric.RunPhaseReliable(
      "decode tuples", [&](uint32_t node) -> Status {
        if (node == 1) return Status::Corruption("bad payload");
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.ToString().find("decode tuples"), std::string::npos);
  EXPECT_NE(status.ToString().find("bad payload"), std::string::npos);
}

// --- Determinism ----------------------------------------------------------

TEST(ReliableFabricTest, SameSeedSameOutcome) {
  FaultPolicy policy;
  policy.drop = 0.2;
  policy.corrupt = 0.1;
  policy.duplicate = 0.1;
  Exchange a = RunExchange(4, 8, &policy, 31337);
  Exchange b = RunExchange(4, 8, &policy, 31337);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.received, b.received);  // Identical order, not just content.
  EXPECT_TRUE(a.traffic == b.traffic);
  EXPECT_EQ(a.reliability.faults.frames_dropped,
            b.reliability.faults.frames_dropped);
  EXPECT_EQ(a.reliability.retransmitted_frames,
            b.reliability.retransmitted_frames);
  EXPECT_EQ(a.reliability.nack_messages, b.reliability.nack_messages);
}

TEST(ReliableFabricTest, DifferentSeedsDifferentFaults) {
  FaultPolicy policy;
  policy.drop = 0.3;
  Exchange a = RunExchange(4, 16, &policy, 1);
  Exchange b = RunExchange(4, 16, &policy, 2);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  // Same goodput either way; the fault pattern (and so the retry work)
  // almost surely differs.
  EXPECT_EQ(Canonical(a.received), Canonical(b.received));
  EXPECT_NE(a.reliability.faults.frames_dropped +
                a.reliability.retransmitted_frames * 131,
            b.reliability.faults.frames_dropped +
                b.reliability.retransmitted_frames * 131);
}

// --- Straggler modeling ---------------------------------------------------

TEST(ReliableFabricTest, SlowNodeStretchesPhaseTime) {
  FaultPolicy policy;
  policy.slow_node = 0;
  policy.slowdown_seconds = 1.5;
  Fabric fabric(2);
  fabric.SetFaultPolicy(policy, 4);
  Status status =
      fabric.RunPhaseReliable("slow", [&](uint32_t) { return Status::OK(); });
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(fabric.steps().size(), 1u);
  EXPECT_GE(fabric.steps()[0].wall_seconds, 1.5);
}

// A straggler perturbs modeled time only, never delivery: the policy is not
// "active", the wire path stays unframed, and every byte matches a run with
// no policy at all.
TEST(ReliableFabricTest, StragglerOnlyPolicyKeepsWirePristine) {
  FaultPolicy policy;
  policy.slow_node = 1;
  policy.slowdown_seconds = 2.0;
  EXPECT_FALSE(policy.active());
  EXPECT_TRUE(policy.models_straggler());
  EXPECT_TRUE(policy.any_effect());

  Exchange plain = RunExchange(4, 3, nullptr, 0);
  Exchange slow = RunExchange(4, 3, &policy, 55);
  ASSERT_TRUE(slow.status.ok());
  EXPECT_EQ(plain.received, slow.received);  // Order included.
  EXPECT_TRUE(plain.traffic == slow.traffic);  // No framing overhead.
  EXPECT_EQ(slow.reliability.retransmitted_frames, 0u);
  EXPECT_EQ(slow.traffic.TotalRetransmitBytes(), 0u);
}

// The slowdown is modeled on the framed path too, not just the pristine one.
TEST(ReliableFabricTest, StragglerModeledAlongsideActiveFaults) {
  FaultPolicy policy;
  policy.slow_node = 0;
  policy.slowdown_seconds = 1.5;
  policy.drop = 1e-12;  // Active, so the framed path runs.
  ASSERT_TRUE(policy.active());
  Fabric fabric(2);
  fabric.SetFaultPolicy(policy, 4);
  Status status =
      fabric.RunPhaseReliable("slow", [&](uint32_t) { return Status::OK(); });
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(fabric.steps().size(), 1u);
  EXPECT_GE(fabric.steps()[0].wall_seconds, 1.5);
}

// --- Deadline promotion ---------------------------------------------------

TEST(ReliableFabricTest, DeadlinePromotesStragglerToSuspectedDead) {
  FaultPolicy policy;
  policy.slow_node = 1;
  policy.slowdown_seconds = 3.0;
  Fabric fabric(3);
  fabric.SetFaultPolicy(policy, 9);
  fabric.SetPhaseDeadline(1.0);
  RunDiagnostics diag;
  fabric.SetDiagnosticsSink(&diag);
  Status status =
      fabric.RunPhaseReliable("scan", [&](uint32_t) { return Status::OK(); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.ToString().find("scan"), std::string::npos);
  EXPECT_EQ(fabric.failure().suspected_nodes, (std::vector<uint32_t>{1}));
  EXPECT_TRUE(fabric.failure().dead_nodes.empty());
  EXPECT_FALSE(fabric.failure().transient());  // A node is implicated.
  // The diagnostics sink got the same report for out-of-band consumers.
  EXPECT_EQ(diag.failure.suspected_nodes, (std::vector<uint32_t>{1}));
  EXPECT_EQ(diag.failure.phase, "scan");
  // The failed phase records no step, but its burned time still reaches
  // the diagnostics, as the last phase entry.
  EXPECT_TRUE(fabric.steps().empty());
  ASSERT_EQ(diag.phase_seconds.size(), 1u);
  EXPECT_EQ(diag.phase_seconds[0].first, "scan");
  EXPECT_GE(diag.phase_seconds[0].second, 3.0);
}

TEST(ReliableFabricTest, StragglerWithinDeadlineJustRunsSlow) {
  FaultPolicy policy;
  policy.slow_node = 1;
  policy.slowdown_seconds = 0.5;
  Fabric fabric(3);
  fabric.SetFaultPolicy(policy, 9);
  fabric.SetPhaseDeadline(1.0);
  Status status =
      fabric.RunPhaseReliable("scan", [&](uint32_t) { return Status::OK(); });
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(fabric.failure().empty());
  EXPECT_GE(fabric.steps()[0].wall_seconds, 0.5);
}

// --- Structured failure reports -------------------------------------------

// The DataLoss error names the exhausted sequence range and retry count
// (the operator-facing side), and failure() carries the same facts as
// structured per-link losses (the recovery-layer side).
TEST(ReliableFabricTest, ExhaustionNamesSeqRangeAndFillsLinkLoss) {
  FaultPolicy policy;
  policy.drop = 1.0;
  policy.max_retries = 3;
  Fabric fabric(2);
  fabric.SetFaultPolicy(policy, 8);
  RunDiagnostics diag;
  fabric.SetDiagnosticsSink(&diag);
  Status status = fabric.RunPhaseReliable(
      "exchange", [&](uint32_t node) -> Status {
        if (node == 0) {
          fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{1, 2, 3});
          fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{4, 5, 6});
        }
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  const std::string msg = status.ToString();
  EXPECT_NE(msg.find("3 retry round"), std::string::npos) << msg;
  EXPECT_NE(msg.find("seq range ["), std::string::npos) << msg;

  const FailureReport& failure = fabric.failure();
  EXPECT_EQ(failure.phase, "exchange");
  EXPECT_EQ(failure.retry_rounds, 3u);
  EXPECT_TRUE(failure.transient());  // Loss, but no node implicated.
  ASSERT_EQ(failure.lost_links.size(), 1u);
  EXPECT_EQ(failure.lost_links[0].src, 0u);
  EXPECT_EQ(failure.lost_links[0].dst, 1u);
  EXPECT_EQ(failure.lost_links[0].frames, 2u);
  EXPECT_LE(failure.lost_links[0].seq_begin, failure.lost_links[0].seq_end);
  EXPECT_EQ(diag.failure.lost_links.size(), 1u);
}

TEST(ReliableFabricTest, CrashFillsDeadNodes) {
  FaultPolicy policy;
  policy.crash_node = 1;
  policy.crash_phase = 0;
  Fabric fabric(3);
  fabric.SetFaultPolicy(policy, 8);
  Status status =
      fabric.RunPhaseReliable("p0", [&](uint32_t) { return Status::OK(); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(fabric.failure().dead_nodes, (std::vector<uint32_t>{1}));
  EXPECT_FALSE(fabric.failure().transient());
  EXPECT_EQ(fabric.failure().unusable_nodes(), (std::vector<uint32_t>{1}));
}

TEST(ReliableFabricTest, SuccessClearsTheFailureReport) {
  FaultPolicy policy;
  policy.drop = 0.3;
  Fabric fabric(3);
  fabric.SetFaultPolicy(policy, 77);
  Status status = fabric.RunPhaseReliable(
      "ok", [&](uint32_t node) -> Status {
        fabric.Send(node, (node + 1) % 3, MessageType::kDataR, ByteBuffer{9});
        return Status::OK();
      });
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(fabric.failure().empty());
}

// --- Inbox durability across failure --------------------------------------

// Reliably delivered messages survive phase barriers until taken — even
// when a *later* phase fails. Typed TakeInbox leftovers taken two barriers
// later must also still be there after the failure.
TEST(ReliableFabricTest, DeliveredInboxesSurviveLaterPhaseFailure) {
  FaultPolicy policy;
  policy.crash_node = 2;
  policy.crash_phase = 2;
  Fabric fabric(3);
  fabric.SetFaultPolicy(policy, 5);

  // Phase 0: node 0 sends node 1 one control and two data messages.
  Status p0 = fabric.RunPhaseReliable("p0", [&](uint32_t node) -> Status {
    if (node == 0) {
      fabric.Send(0, 1, MessageType::kTrackR, ByteBuffer{7});
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{1, 1});
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{2, 2});
    }
    return Status::OK();
  });
  ASSERT_TRUE(p0.ok()) << p0.ToString();

  // Phase 1: take only the control message; the data stays pending.
  std::vector<Message> control;
  Status p1 = fabric.RunPhaseReliable("p1", [&](uint32_t node) -> Status {
    if (node == 1) {
      control = fabric.TakeInbox(1, MessageType::kTrackR);
    }
    return Status::OK();
  });
  ASSERT_TRUE(p1.ok()) << p1.ToString();
  ASSERT_EQ(control.size(), 1u);

  // Phase 2 fails (crash). Everything queued-but-undelivered dies with the
  // phase; what was already delivered must not.
  Status p2 =
      fabric.RunPhaseReliable("p2", [&](uint32_t) { return Status::OK(); });
  ASSERT_FALSE(p2.ok());
  EXPECT_EQ(p2.code(), StatusCode::kDataLoss);

  // The typed leftovers are taken two barriers after delivery, after the
  // failed phase, intact and in delivery order.
  std::vector<Message> data = fabric.TakeInbox(1, MessageType::kDataR);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0].src, 0u);
  EXPECT_EQ(data[0].data, (ByteBuffer{1, 1}));
  EXPECT_EQ(data[1].data, (ByteBuffer{2, 2}));
  EXPECT_TRUE(fabric.TakeInbox(1).empty());  // Nothing else survived.
}

}  // namespace
}  // namespace tj
