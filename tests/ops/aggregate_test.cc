#include "ops/aggregate.h"

#include <gtest/gtest.h>

#include <map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "workload/generator.h"

namespace tj {
namespace {

/// Builds a table whose rows carry a 4-byte group id and a 4-byte value in
/// the payload.
PartitionedTable MakeInput(uint32_t nodes, uint64_t rows, uint64_t groups,
                           uint64_t seed,
                           std::map<uint64_t, std::pair<uint64_t, uint64_t>>*
                               expected) {
  PartitionedTable table("in", nodes, 8);
  Rng rng(seed);
  uint8_t payload[8];
  for (uint64_t i = 0; i < rows; ++i) {
    uint64_t group = rng.Below(groups);
    uint64_t value = rng.Below(100000);
    for (int b = 0; b < 4; ++b) payload[b] = static_cast<uint8_t>(group >> (8 * b));
    for (int b = 0; b < 4; ++b) {
      payload[4 + b] = static_cast<uint8_t>(value >> (8 * b));
    }
    table.node(rng.Below(nodes)).Append(i, payload);
    auto& e = (*expected)[group];
    e.first += value;
    e.second += 1;
  }
  return table;
}

AggregateConfig GroupByPayloadConfig() {
  AggregateConfig config;
  config.group_by = FieldRef::Payload(0, 4);
  config.value = FieldRef::Payload(4, 4);
  return config;
}

std::map<uint64_t, std::pair<uint64_t, uint64_t>> Collect(
    const AggregateResult& result, uint32_t sum_bytes) {
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> out;
  for (uint32_t node = 0; node < result.output.num_nodes(); ++node) {
    const TupleBlock& block = result.output.node(node);
    for (uint64_t row = 0; row < block.size(); ++row) {
      const uint8_t* p = block.Payload(row);
      uint64_t sum = 0, count = 0;
      for (uint32_t i = 0; i < sum_bytes; ++i) {
        sum |= static_cast<uint64_t>(p[i]) << (8 * i);
      }
      for (uint32_t i = 0; i < 8; ++i) {
        count |= static_cast<uint64_t>(p[sum_bytes + i]) << (8 * i);
      }
      EXPECT_FALSE(out.count(block.Key(row)));  // Groups appear once.
      out[block.Key(row)] = {sum, count};
    }
  }
  return out;
}

TEST(AggregateTest, MatchesReferenceBothStrategies) {
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> expected;
  PartitionedTable input = MakeInput(4, 5000, 100, 3, &expected);

  for (bool pre : {false, true}) {
    AggregateConfig config = GroupByPayloadConfig();
    config.pre_aggregate = pre;
    AggregateResult result = ValueOrDie(TryRunDistributedAggregate(
        input, config));
    EXPECT_EQ(result.groups, expected.size()) << pre;
    EXPECT_EQ(result.input_rows, 5000u);
    auto got = Collect(result, config.sum_bytes);
    EXPECT_EQ(got, expected) << "pre_aggregate=" << pre;
  }
}

TEST(AggregateTest, PreAggregationShrinksTraffic) {
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> expected;
  PartitionedTable input = MakeInput(8, 40000, 50, 5, &expected);

  AggregateConfig naive = GroupByPayloadConfig();
  naive.pre_aggregate = false;
  AggregateConfig pre = GroupByPayloadConfig();
  AggregateResult naive_run = ValueOrDie(TryRunDistributedAggregate(
      input, naive));
  AggregateResult pre_run = ValueOrDie(TryRunDistributedAggregate(input, pre));
  // 40000 rows vs <= 8*50 partials.
  EXPECT_LT(pre_run.traffic.TotalNetworkBytes() * 50,
            naive_run.traffic.TotalNetworkBytes());
}

TEST(AggregateTest, ManyGroupsMakePreAggregationPointless) {
  // Every row its own group: pre-aggregation cannot reduce anything.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> expected;
  PartitionedTable input = MakeInput(4, 3000, 1 << 30, 7, &expected);
  AggregateConfig naive = GroupByPayloadConfig();
  naive.pre_aggregate = false;
  AggregateConfig pre = GroupByPayloadConfig();
  AggregateResult naive_run = ValueOrDie(TryRunDistributedAggregate(
      input, naive));
  AggregateResult pre_run = ValueOrDie(TryRunDistributedAggregate(input, pre));
  EXPECT_EQ(pre_run.traffic.TotalNetworkBytes(),
            naive_run.traffic.TotalNetworkBytes());
}

TEST(AggregateTest, GroupByJoinKey) {
  PartitionedTable table("in", 3, 4);
  uint8_t value[4] = {10, 0, 0, 0};
  table.node(0).Append(7, value);
  table.node(1).Append(7, value);
  value[0] = 5;
  table.node(2).Append(9, value);
  AggregateConfig config;  // Defaults: group by key, value = payload[0..4).
  AggregateResult result =
      ValueOrDie(TryRunDistributedAggregate(table, config));
  auto got = Collect(result, config.sum_bytes);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[7], (std::pair<uint64_t, uint64_t>{20, 2}));
  EXPECT_EQ(got[9], (std::pair<uint64_t, uint64_t>{5, 1}));
}

TEST(AggregateTest, EmptyInput) {
  PartitionedTable table("in", 2, 8);
  AggregateResult result =
      ValueOrDie(TryRunDistributedAggregate(table, GroupByPayloadConfig()));
  EXPECT_EQ(result.groups, 0u);
  EXPECT_EQ(result.traffic.TotalNetworkBytes(), 0u);
}

TEST(AggregateTest, OutputResidencyByGroupHash) {
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> expected;
  PartitionedTable input = MakeInput(4, 2000, 64, 11, &expected);
  AggregateResult result =
      ValueOrDie(TryRunDistributedAggregate(input, GroupByPayloadConfig()));
  for (uint32_t node = 0; node < 4; ++node) {
    const TupleBlock& block = result.output.node(node);
    for (uint64_t row = 0; row < block.size(); ++row) {
      EXPECT_EQ(HashPartition(block.Key(row), 4), node);
    }
  }
}

}  // namespace
}  // namespace tj
