#include <gtest/gtest.h>

#include <map>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "workload/generator.h"

namespace tj {
namespace {

TEST(ZipfWorkloadTest, CardinalitiesAndOutputExact) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 4;
  spec.key_domain = 500;
  spec.r_rows = 3000;
  spec.s_rows = 5000;
  spec.r_theta = 0.9;
  spec.s_theta = 0.9;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));
  EXPECT_EQ(w.r.TotalRows(), 3000u);
  EXPECT_EQ(w.s.TotalRows(), 5000u);

  // Brute-force the expected output from the generated tables.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> counts;
  for (uint32_t node = 0; node < 4; ++node) {
    for (uint64_t key : w.r.node(node).keys()) ++counts[key].first;
    for (uint64_t key : w.s.node(node).keys()) ++counts[key].second;
  }
  uint64_t expected = 0;
  for (const auto& [key, rs] : counts) expected += rs.first * rs.second;
  EXPECT_EQ(w.expected_output_rows, expected);

  // And the join delivers exactly that.
  JoinConfig config;
  config.key_bytes = 4;
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
  EXPECT_EQ(result.output_rows, expected);
}

TEST(ZipfWorkloadTest, SkewConcentratesMultiplicity) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 2;
  spec.key_domain = 10000;
  spec.r_rows = 20000;
  spec.s_rows = 20000;
  spec.r_theta = 1.2;
  spec.s_theta = 1.2;
  Workload skewed = ValueOrDie(TryGenerateZipfWorkload(spec));
  spec.r_theta = 0.0;
  spec.s_theta = 0.0;
  spec.seed = spec.seed + 1;
  Workload uniform = ValueOrDie(TryGenerateZipfWorkload(spec));
  // Quadratic output blows up under skew.
  EXPECT_GT(skewed.expected_output_rows, 4 * uniform.expected_output_rows);
}

TEST(ZipfWorkloadTest, DeterministicBySeed) {
  ZipfWorkloadSpec spec;
  spec.key_domain = 100;
  spec.r_rows = 1000;
  spec.s_rows = 1000;
  Workload a = ValueOrDie(TryGenerateZipfWorkload(spec));
  Workload b = ValueOrDie(TryGenerateZipfWorkload(spec));
  for (uint32_t node = 0; node < spec.num_nodes; ++node) {
    EXPECT_EQ(a.r.node(node).keys(), b.r.node(node).keys());
  }
}

TEST(ZipfWorkloadTest, PayloadsDistinctPerCopy) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 1;
  spec.key_domain = 1;  // Every row is the same key.
  spec.r_rows = 10;
  spec.s_rows = 0;
  spec.r_payload = 8;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));
  const TupleBlock& block = w.r.node(0);
  for (uint64_t i = 1; i < block.size(); ++i) {
    EXPECT_NE(0, memcmp(block.Payload(0), block.Payload(i), 8));
  }
}

TEST(ZipfWorkloadTest, EmptySideYieldsZeroOutput) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 3;
  spec.key_domain = 50;
  spec.r_rows = 0;
  spec.s_rows = 400;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));
  EXPECT_EQ(w.r.TotalRows(), 0u);
  EXPECT_EQ(w.s.TotalRows(), 400u);
  EXPECT_EQ(w.expected_output_rows, 0u);
}

TEST(ZipfWorkloadTest, DomainOfOneIsFullCrossProduct) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 2;
  spec.key_domain = 1;
  spec.r_rows = 30;
  spec.s_rows = 40;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));
  EXPECT_EQ(w.expected_output_rows, 1200u);
}

TEST(ZipfWorkloadTest, OutputProductOverflowIsInvalidArgument) {
  uint64_t total = 0;
  EXPECT_TRUE(AddOutputProduct(1, 1u << 20, 1u << 20, &total).ok());
  EXPECT_EQ(total, 1ull << 40);

  // One key's product alone exceeds uint64.
  Status product = AddOutputProduct(7, 1ull << 33, 1ull << 33, &total);
  EXPECT_EQ(product.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(product.message().find("key 7"), std::string::npos);
  EXPECT_EQ(total, 1ull << 40);  // Untouched on failure.

  // The running sum can overflow even when each product fits.
  total = ~0ull - 10;
  Status sum = AddOutputProduct(9, 4, 4, &total);
  EXPECT_EQ(sum.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(total, ~0ull - 10);
}

TEST(ZipfWorkloadTest, EmptyDomainOrClusterIsInvalidArgument) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 4;
  spec.key_domain = 0;
  Result<Workload> no_keys = TryGenerateZipfWorkload(spec);
  ASSERT_FALSE(no_keys.ok());
  EXPECT_EQ(no_keys.status().code(), StatusCode::kInvalidArgument);

  spec.num_nodes = 0;
  spec.key_domain = 100;
  Result<Workload> no_nodes = TryGenerateZipfWorkload(spec);
  ASSERT_FALSE(no_nodes.ok());
  EXPECT_EQ(no_nodes.status().code(), StatusCode::kInvalidArgument);
}

TEST(ZipfWorkloadTest, ThetaZeroFastPathIsUniform) {
  ZipfWorkloadSpec spec;
  spec.num_nodes = 2;
  spec.key_domain = 4;
  spec.r_rows = 40000;
  spec.s_rows = 0;
  spec.r_theta = 0.0;
  spec.s_theta = 0.0;
  Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));
  std::map<uint64_t, uint64_t> counts;
  for (uint32_t node = 0; node < spec.num_nodes; ++node) {
    for (uint64_t key : w.r.node(node).keys()) ++counts[key];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [key, count] : counts) EXPECT_NEAR(count, 10000, 500);
}

}  // namespace
}  // namespace tj
