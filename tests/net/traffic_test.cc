#include "net/traffic.h"

#include <gtest/gtest.h>

#include "net/time_model.h"

namespace tj {
namespace {

TEST(TrafficTest, LocalVsNetworkSeparation) {
  TrafficMatrix m(3);
  m.Add(0, 1, MessageType::kDataR, 100);
  m.Add(1, 1, MessageType::kDataR, 50);  // Local copy.
  EXPECT_EQ(m.NetworkBytes(MessageType::kDataR), 100u);
  EXPECT_EQ(m.LocalBytes(MessageType::kDataR), 50u);
  EXPECT_EQ(m.TotalNetworkBytes(), 100u);
  EXPECT_EQ(m.TotalLocalBytes(), 50u);
}

TEST(TrafficTest, ClassAggregation) {
  TrafficMatrix m(2);
  m.Add(0, 1, MessageType::kTrackR, 10);
  m.Add(0, 1, MessageType::kTrackS, 20);
  m.Add(0, 1, MessageType::kLocationsToR, 5);
  m.Add(0, 1, MessageType::kMigrateS, 6);
  m.Add(0, 1, MessageType::kDataR, 100);
  m.Add(0, 1, MessageType::kMigrationDataR, 1);
  m.Add(0, 1, MessageType::kDataS, 200);
  EXPECT_EQ(m.NetworkBytes(TrafficClass::kKeysAndCounts), 30u);
  EXPECT_EQ(m.NetworkBytes(TrafficClass::kKeysAndNodes), 11u);
  EXPECT_EQ(m.NetworkBytes(TrafficClass::kRTuples), 101u);
  EXPECT_EQ(m.NetworkBytes(TrafficClass::kSTuples), 200u);
  EXPECT_EQ(m.TotalNetworkBytes(), 342u);
}

TEST(TrafficTest, IngressEgressAndLinks) {
  TrafficMatrix m(3);
  m.Add(0, 1, MessageType::kDataR, 10);
  m.Add(0, 2, MessageType::kDataR, 20);
  m.Add(1, 0, MessageType::kDataS, 5);
  EXPECT_EQ(m.EgressBytes(0), 30u);
  EXPECT_EQ(m.IngressBytes(0), 5u);
  EXPECT_EQ(m.EgressBytes(1), 5u);
  EXPECT_EQ(m.IngressBytes(2), 20u);
  EXPECT_EQ(m.LinkBytes(0, 2), 20u);
  EXPECT_EQ(m.MaxNodeBytes(), 30u);
}

TEST(TrafficTest, MergeAccumulates) {
  TrafficMatrix a(2), b(2);
  a.Add(0, 1, MessageType::kDataR, 7);
  b.Add(0, 1, MessageType::kDataR, 8);
  b.Add(1, 0, MessageType::kDataS, 9);
  a.Merge(b);
  EXPECT_EQ(a.NetworkBytes(MessageType::kDataR), 15u);
  EXPECT_EQ(a.NetworkBytes(MessageType::kDataS), 9u);
}

TEST(TrafficTest, ReportMentionsClasses) {
  TrafficMatrix m(2);
  m.Add(0, 1, MessageType::kDataR, 1 << 20);
  std::string report = m.Report();
  EXPECT_NE(report.find("R Tuples"), std::string::npos);
  EXPECT_NE(report.find("total network"), std::string::npos);
}

TEST(FormatBytesTest, Units) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 << 20), "3.00 MiB");
  EXPECT_EQ(FormatBytes(5ULL << 30), "5.00 GiB");
}

TEST(TimeModelTest, LinearInBytes) {
  TrafficMatrix m(2);
  m.Add(0, 1, MessageType::kDataR, 93000000);  // 0.093 GB.
  NetworkTimeModel model;
  EXPECT_NEAR(model.BottleneckSeconds(m), 1.0, 1e-9);
}

TEST(TimeModelTest, BottleneckUsesBusiestNic) {
  TrafficMatrix m(3);
  m.Add(0, 1, MessageType::kDataR, 1000);
  m.Add(2, 1, MessageType::kDataR, 1000);  // Node 1 ingress = 2000.
  NetworkTimeModel model{1000.0};
  EXPECT_NEAR(model.BottleneckSeconds(m), 2.0, 1e-9);
}

TEST(TrafficTest, ZeroNodesIsEmpty) {
  TrafficMatrix m;
  EXPECT_EQ(m.TotalNetworkBytes(), 0u);
}

TEST(TrafficTest, EveryMessageTypeHasAClass) {
  // Each type must map to a class and contribute to the total.
  for (int t = 0; t < kNumMessageTypes; ++t) {
    TrafficMatrix m(2);
    m.Add(0, 1, static_cast<MessageType>(t), 11);
    EXPECT_EQ(m.TotalNetworkBytes(), 11u) << t;
    auto cls = ClassOf(static_cast<MessageType>(t));
    EXPECT_EQ(m.NetworkBytes(cls), 11u) << t;
  }
}

}  // namespace
}  // namespace tj
