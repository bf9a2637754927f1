#include "net/fabric.h"

#include "common/thread_pool.h"

#include <gtest/gtest.h>

namespace tj {
namespace {

/// Per-node work that does nothing.
Status Idle(uint32_t) { return Status::OK(); }

TEST(FabricTest, MessagesDeliverAfterBarrier) {
  Fabric fabric(2);
  ASSERT_TRUE(fabric.RunPhaseReliable("send", [&](uint32_t node) {
    if (node == 0) {
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{1, 2, 3});
      // Not yet visible to node 1 within the same phase.
    } else {
      EXPECT_TRUE(fabric.TakeInbox(1).empty());
    }
    return Status::OK();
  }).ok());
  std::vector<Message> inbox;
  ASSERT_TRUE(fabric.RunPhaseReliable("receive", [&](uint32_t node) {
    if (node == 1) inbox = fabric.TakeInbox(1);
    return Status::OK();
  }).ok());
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].src, 0u);
  EXPECT_EQ(inbox[0].type, MessageType::kDataR);
  EXPECT_EQ(inbox[0].data, (ByteBuffer{1, 2, 3}));
}

TEST(FabricTest, TrafficAccounted) {
  Fabric fabric(3);
  ASSERT_TRUE(fabric.RunPhaseReliable("send", [&](uint32_t node) {
    if (node == 0) {
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer(10));
      fabric.Send(0, 0, MessageType::kDataR, ByteBuffer(4));  // Local.
    }
    return Status::OK();
  }).ok());
  EXPECT_EQ(fabric.traffic().NetworkBytes(MessageType::kDataR), 10u);
  EXPECT_EQ(fabric.traffic().LocalBytes(MessageType::kDataR), 4u);
}

TEST(FabricTest, TypedInboxLeavesOtherTypes) {
  Fabric fabric(2);
  ASSERT_TRUE(fabric.RunPhaseReliable("send", [&](uint32_t node) {
    if (node == 0) {
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{1});
      fabric.Send(0, 1, MessageType::kDataS, ByteBuffer{2});
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{3});
    }
    return Status::OK();
  }).ok());
  std::vector<Message> r, s;
  bool rest_empty = false;
  ASSERT_TRUE(fabric.RunPhaseReliable("receive", [&](uint32_t node) {
    if (node != 1) return Status::OK();
    r = fabric.TakeInbox(1, MessageType::kDataR);
    s = fabric.TakeInbox(1, MessageType::kDataS);
    rest_empty = fabric.TakeInbox(1).empty();
    return Status::OK();
  }).ok());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].data, (ByteBuffer{1}));
  EXPECT_EQ(r[1].data, (ByteBuffer{3}));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_TRUE(rest_empty);
}

TEST(FabricTest, SelfSendDeliversLocally) {
  Fabric fabric(1);
  ASSERT_TRUE(fabric.RunPhaseReliable("send", [&](uint32_t) {
    fabric.Send(0, 0, MessageType::kTrackR, ByteBuffer{9});
    return Status::OK();
  }).ok());
  std::vector<Message> inbox;
  ASSERT_TRUE(fabric.RunPhaseReliable("receive", [&](uint32_t) {
    inbox = fabric.TakeInbox(0);
    return Status::OK();
  }).ok());
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].data, (ByteBuffer{9}));
  EXPECT_EQ(fabric.traffic().TotalNetworkBytes(), 0u);
  EXPECT_EQ(fabric.traffic().TotalLocalBytes(), 1u);
}

TEST(FabricTest, PhaseTimesRecorded) {
  Fabric fabric(2);
  ASSERT_TRUE(fabric.RunPhaseReliable("a", Idle).ok());
  ASSERT_TRUE(fabric.RunPhaseReliable("b", Idle).ok());
  const auto& steps = fabric.steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].phase, "a");
  EXPECT_EQ(steps[1].phase, "b");
  EXPECT_GE(steps[0].wall_seconds, 0.0);
}

TEST(FabricTest, NodesRunInOrder) {
  Fabric fabric(5);
  std::vector<uint32_t> order;
  ASSERT_TRUE(fabric.RunPhaseReliable("order", [&](uint32_t node) {
    order.push_back(node);
    return Status::OK();
  }).ok());
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(FabricDeathTest, SendOutsidePhaseAborts) {
  Fabric fabric(2);
  EXPECT_DEATH(fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{1}),
               "Send outside RunPhaseReliable");
}

TEST(FabricDeathTest, NestedPhaseAborts) {
  Fabric fabric(2);
  EXPECT_DEATH(fabric.RunPhaseReliable("outer",
                                       [&](uint32_t) {
                                         return fabric.RunPhaseReliable(
                                             "inner", Idle);
                                       }),
               "nested RunPhaseReliable");
}

TEST(FabricDeathTest, OutOfRangeNodesAbort) {
  Fabric fabric(2);
  EXPECT_DEATH(fabric.TakeInbox(9), "");
}

TEST(FabricTest, ParallelPhaseMatchesSequential) {
  auto run = [](ThreadPool* pool) {
    Fabric fabric(6);
    fabric.SetThreadPool(pool);
    std::vector<std::vector<uint8_t>> seen(6);
    Status status = fabric.RunPhaseReliable("send", [&](uint32_t node) {
      for (uint32_t dst = 0; dst < 6; ++dst) {
        fabric.Send(node, dst, MessageType::kDataR,
                    ByteBuffer{static_cast<uint8_t>(node * 16 + dst)});
      }
      return Status::OK();
    });
    EXPECT_TRUE(status.ok()) << status.ToString();
    status = fabric.RunPhaseReliable("recv", [&](uint32_t node) {
      for (const auto& msg : fabric.TakeInbox(node)) {
        seen[node].push_back(msg.data[0]);
      }
      return Status::OK();
    });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return seen;
  };
  ThreadPool pool(4);
  EXPECT_EQ(run(nullptr), run(&pool));
}

// The inbox contract algorithms depend on (see fabric.h): delivered
// messages persist across later barriers until taken, and typed takes
// leave every other type in place, in delivery order.
TEST(FabricTest, InboxSurvivesLaterBarriers) {
  Fabric fabric(2);
  ASSERT_TRUE(fabric.RunPhaseReliable("send", [&](uint32_t node) {
    if (node == 0) fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{1});
    return Status::OK();
  }).ok());
  // Two full barriers pass without node 1 touching its inbox.
  ASSERT_TRUE(fabric.RunPhaseReliable("idle1", Idle).ok());
  ASSERT_TRUE(fabric.RunPhaseReliable("idle2", Idle).ok());
  std::vector<Message> inbox;
  bool taken_means_gone = false;
  ASSERT_TRUE(fabric.RunPhaseReliable("receive", [&](uint32_t node) {
    if (node != 1) return Status::OK();
    inbox = fabric.TakeInbox(1);
    taken_means_gone = fabric.TakeInbox(1).empty();
    return Status::OK();
  }).ok());
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].data, (ByteBuffer{1}));
  EXPECT_TRUE(taken_means_gone);
}

// The hash-join pattern: R ships in phase 1, S in phase 2, both consumed in
// phase 3. A typed take of S must not disturb the older R messages.
TEST(FabricTest, TypedLeftoversSurviveInterveningPhasesAndTakes) {
  Fabric fabric(2);
  ASSERT_TRUE(fabric.RunPhaseReliable("send R", [&](uint32_t node) {
    if (node == 0) {
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{1});
      fabric.Send(0, 1, MessageType::kDataR, ByteBuffer{2});
    }
    return Status::OK();
  }).ok());
  ASSERT_TRUE(fabric.RunPhaseReliable("send S", [&](uint32_t node) {
    if (node == 0) fabric.Send(0, 1, MessageType::kDataS, ByteBuffer{7});
    return Status::OK();
  }).ok());
  std::vector<Message> r, s;
  ASSERT_TRUE(fabric.RunPhaseReliable("consume", [&](uint32_t node) {
    if (node != 1) return Status::OK();
    // Take the newer type first; the older type must be untouched and in
    // its original delivery order.
    s = fabric.TakeInbox(1, MessageType::kDataS);
    r = fabric.TakeInbox(1, MessageType::kDataR);
    return Status::OK();
  }).ok());
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].data, (ByteBuffer{7}));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].data, (ByteBuffer{1}));
  EXPECT_EQ(r[1].data, (ByteBuffer{2}));
  // Nothing left over after both takes.
  ASSERT_TRUE(fabric.RunPhaseReliable("check", [&](uint32_t node) {
    if (node == 1) {
      EXPECT_TRUE(fabric.TakeInbox(1).empty());
    }
    return Status::OK();
  }).ok());
}

// A typed take for a type that was never sent is an empty result, not an
// error, and leaves other messages pending.
TEST(FabricTest, TypedTakeOfAbsentTypeIsEmpty) {
  Fabric fabric(2);
  ASSERT_TRUE(fabric.RunPhaseReliable("send", [&](uint32_t node) {
    if (node == 0) fabric.Send(0, 1, MessageType::kTrackR, ByteBuffer{5});
    return Status::OK();
  }).ok());
  ASSERT_TRUE(fabric.RunPhaseReliable("receive", [&](uint32_t node) {
    if (node != 1) return Status::OK();
    EXPECT_TRUE(fabric.TakeInbox(1, MessageType::kAck).empty());
    EXPECT_EQ(fabric.TakeInbox(1, MessageType::kTrackR).size(), 1u);
    return Status::OK();
  }).ok());
}

TEST(FabricTest, MessagesOrderedBySenderThenSendOrder) {
  Fabric fabric(3);
  ASSERT_TRUE(fabric.RunPhaseReliable("send", [&](uint32_t node) {
    if (node == 2) fabric.Send(2, 0, MessageType::kDataR, ByteBuffer{20});
    if (node == 1) {
      fabric.Send(1, 0, MessageType::kDataR, ByteBuffer{10});
      fabric.Send(1, 0, MessageType::kDataR, ByteBuffer{11});
    }
    return Status::OK();
  }).ok());
  std::vector<Message> inbox;
  ASSERT_TRUE(fabric.RunPhaseReliable("receive", [&](uint32_t node) {
    if (node == 0) inbox = fabric.TakeInbox(0);
    return Status::OK();
  }).ok());
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].data, (ByteBuffer{10}));
  EXPECT_EQ(inbox[1].data, (ByteBuffer{11}));
  EXPECT_EQ(inbox[2].data, (ByteBuffer{20}));
}

}  // namespace
}  // namespace tj
