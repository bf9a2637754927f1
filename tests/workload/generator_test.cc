#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "common/hash.h"
#include "exec/key_aggregate.h"
#include "workload/real.h"

namespace tj {
namespace {

std::map<uint64_t, std::vector<std::pair<uint32_t, uint64_t>>> KeyPlacements(
    const PartitionedTable& table) {
  std::map<uint64_t, std::vector<std::pair<uint32_t, uint64_t>>> out;
  for (uint32_t node = 0; node < table.num_nodes(); ++node) {
    for (const auto& kc : AggregateKeys(table.node(node))) {
      out[kc.key].emplace_back(node, kc.count);
    }
  }
  return out;
}

/// InvalidArgument whose message names `field`.
void ExpectRejects(const WorkloadSpec& spec, const std::string& field) {
  Status s = ValidateWorkloadSpec(spec);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find(field), std::string::npos) << s.ToString();
}

WorkloadSpec IntraSpec() {
  WorkloadSpec spec;
  spec.num_nodes = 3;
  spec.r_multiplicity = 3;
  spec.s_multiplicity = 2;
  spec.collocation = Collocation::kIntra;
  return spec;
}

TEST(ValidateWorkloadSpecTest, AcceptsWhatGenerates) {
  WorkloadSpec spec = IntraSpec();
  EXPECT_TRUE(ValidateWorkloadSpec(spec).ok());  // Empty patterns.
  spec.r_pattern = {1, 1, 1};
  spec.s_pattern = {2};
  ASSERT_TRUE(ValidateWorkloadSpec(spec).ok());
  EXPECT_EQ(GenerateWorkload(spec).r.TotalRows(), 3 * spec.matched_keys);
  // Random placement ignores the patterns, however they are shaped.
  spec.collocation = Collocation::kRandom;
  spec.r_pattern = {9, 9, 9, 9};
  EXPECT_TRUE(ValidateWorkloadSpec(spec).ok());
}

TEST(ValidateWorkloadSpecTest, RejectsZeroNodes) {
  WorkloadSpec spec;
  spec.num_nodes = 0;
  ExpectRejects(spec, "num_nodes");
}

TEST(ValidateWorkloadSpecTest, RejectsZeroMultiplicities) {
  WorkloadSpec spec;
  spec.r_multiplicity = 0;
  ExpectRejects(spec, "r_multiplicity");
  spec.r_multiplicity = 1;
  spec.s_multiplicity = 0;
  ExpectRejects(spec, "s_multiplicity");
}

TEST(ValidateWorkloadSpecTest, RejectsPatternNotSummingToMultiplicity) {
  WorkloadSpec spec = IntraSpec();
  spec.r_pattern = {2};
  ExpectRejects(spec, "r_pattern");
  spec.r_pattern = {};
  spec.s_pattern = {1, 2};
  spec.collocation = Collocation::kInter;
  ExpectRejects(spec, "s_pattern");
}

TEST(ValidateWorkloadSpecTest, RejectsMoreGroupsThanNodes) {
  WorkloadSpec spec = IntraSpec();
  spec.num_nodes = 2;
  spec.r_pattern = {1, 1, 1};
  ExpectRejects(spec, "r_pattern");
  spec.r_pattern = {};
  spec.num_nodes = 1;
  spec.s_pattern = {1, 1};
  ExpectRejects(spec, "s_pattern");
}

TEST(GeneratorTest, CardinalitiesMatchSpec) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 100;
  spec.r_multiplicity = 3;
  spec.s_multiplicity = 5;
  spec.r_unmatched = 17;
  spec.s_unmatched = 23;
  Workload w = GenerateWorkload(spec);
  EXPECT_EQ(w.r.TotalRows(), 100u * 3 + 17);
  EXPECT_EQ(w.s.TotalRows(), 100u * 5 + 23);
  EXPECT_EQ(w.expected_output_rows, 100u * 15);
}

TEST(GeneratorTest, PatternsPlaceRepeatsAsSpecified) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 200;
  spec.s_multiplicity = 5;
  spec.s_pattern = {2, 2, 1};
  spec.collocation = Collocation::kIntra;
  Workload w = GenerateWorkload(spec);
  auto placements = KeyPlacements(w.s);
  ASSERT_EQ(placements.size(), 200u);
  for (const auto& [key, nodes] : placements) {
    ASSERT_EQ(nodes.size(), 3u) << key;
    std::multiset<uint64_t> counts;
    for (const auto& [node, count] : nodes) counts.insert(count);
    EXPECT_EQ(counts, (std::multiset<uint64_t>{1, 2, 2}));
  }
}

TEST(GeneratorTest, InterCollocationAlignsTables) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 150;
  spec.r_multiplicity = 5;
  spec.s_multiplicity = 5;
  spec.r_pattern = {5};
  spec.s_pattern = {5};
  spec.collocation = Collocation::kInter;
  Workload w = GenerateWorkload(spec);
  auto r_placements = KeyPlacements(w.r);
  auto s_placements = KeyPlacements(w.s);
  for (const auto& [key, r_nodes] : r_placements) {
    ASSERT_EQ(r_nodes.size(), 1u);
    const auto& s_nodes = s_placements.at(key);
    ASSERT_EQ(s_nodes.size(), 1u);
    EXPECT_EQ(r_nodes[0].first, s_nodes[0].first) << key;
  }
}

TEST(GeneratorTest, IntraCollocationIndependentAcrossTables) {
  WorkloadSpec spec;
  spec.num_nodes = 16;
  spec.matched_keys = 400;
  spec.r_multiplicity = 5;
  spec.s_multiplicity = 5;
  spec.r_pattern = {5};
  spec.s_pattern = {5};
  spec.collocation = Collocation::kIntra;
  Workload w = GenerateWorkload(spec);
  auto r_placements = KeyPlacements(w.r);
  auto s_placements = KeyPlacements(w.s);
  int aligned = 0;
  for (const auto& [key, r_nodes] : r_placements) {
    if (r_nodes[0].first == s_placements.at(key)[0].first) ++aligned;
  }
  // Independent placement aligns ~1/16 of keys, far below 1/2.
  EXPECT_LT(aligned, 100);
  EXPECT_GT(aligned, 0);  // But some collide by chance.
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  WorkloadSpec spec;
  spec.matched_keys = 50;
  spec.seed = 7;
  Workload a = GenerateWorkload(spec);
  Workload b = GenerateWorkload(spec);
  for (uint32_t node = 0; node < a.r.num_nodes(); ++node) {
    EXPECT_EQ(a.r.node(node).keys(), b.r.node(node).keys());
  }
  spec.seed = 8;
  Workload c = GenerateWorkload(spec);
  bool any_diff = false;
  for (uint32_t node = 0; node < a.r.num_nodes(); ++node) {
    any_diff |= a.r.node(node).keys() != c.r.node(node).keys();
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorTest, UnmatchedKeysAreDisjoint) {
  WorkloadSpec spec;
  spec.matched_keys = 100;
  spec.r_unmatched = 50;
  spec.s_unmatched = 50;
  Workload w = GenerateWorkload(spec);
  std::set<uint64_t> r_keys, s_keys;
  for (uint32_t node = 0; node < w.r.num_nodes(); ++node) {
    for (uint64_t k : w.r.node(node).keys()) r_keys.insert(k);
    for (uint64_t k : w.s.node(node).keys()) s_keys.insert(k);
  }
  EXPECT_EQ(r_keys.size(), 150u);
  EXPECT_EQ(s_keys.size(), 150u);
  // Intersection is exactly the matched keys 1..100.
  std::set<uint64_t> both;
  std::set_intersection(r_keys.begin(), r_keys.end(), s_keys.begin(),
                        s_keys.end(), std::inserter(both, both.begin()));
  EXPECT_EQ(both.size(), 100u);
  EXPECT_EQ(*both.begin(), 1u);
  EXPECT_EQ(*both.rbegin(), 100u);
}

TEST(GeneratorTest, ShuffleKeepsRowsMovesPlacement) {
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 500;
  spec.r_multiplicity = 5;
  spec.r_pattern = {5};
  spec.collocation = Collocation::kIntra;
  Workload w = GenerateWorkload(spec);
  uint64_t rows = w.r.TotalRows();
  ShuffleTable(&w.r, 3);
  EXPECT_EQ(w.r.TotalRows(), rows);
  // After shuffling, a key's 5 repeats rarely stay on one node.
  auto placements = KeyPlacements(w.r);
  int collocated = 0;
  for (const auto& [key, nodes] : placements) collocated += nodes.size() == 1;
  EXPECT_LT(collocated, 50);
}

TEST(GeneratorTest, PayloadWidthsApplied) {
  WorkloadSpec spec;
  spec.matched_keys = 10;
  spec.r_payload = 7;
  spec.s_payload = 0;
  Workload w = GenerateWorkload(spec);
  EXPECT_EQ(w.r.payload_width(), 7u);
  EXPECT_EQ(w.s.payload_width(), 0u);
}

/// Order-sensitive digest of a workload: every node's rows, keys and
/// payloads, R then S, plus the expected output count.
uint64_t WorkloadDigest(const Workload& w) {
  uint64_t h = HashMix64(w.expected_output_rows);
  for (const PartitionedTable* table : {&w.r, &w.s}) {
    for (uint32_t node = 0; node < table->num_nodes(); ++node) {
      const TupleBlock& block = table->node(node);
      h = HashMix64(h ^ HashKey(block.size(), node));
      for (uint64_t row = 0; row < block.size(); ++row) {
        h = HashMix64(h ^ HashKey(block.Key(row)));
        h = HashMix64(
            h ^ HashBytes(block.Payload(row), table->payload_width()));
      }
    }
  }
  return h;
}

TEST(GeneratorTest, OutputPinnedByGoldenDigests) {
  // Any change to the generator's draw sequence, placement or payloads
  // changes these digests; a faster generator must keep them.
  EXPECT_EQ(WorkloadDigest(InstantiateReal(WorkloadX(1), 8, 20000, true, 8)),
            0x8f3ecf026df22f2bULL);
  EXPECT_EQ(WorkloadDigest(InstantiateReal(WorkloadY(), 8, 5000, true, 8)),
            0x230654f5402af86aULL);

  WorkloadSpec random;
  random.num_nodes = 5;
  random.seed = 11;
  random.matched_keys = 700;
  random.r_multiplicity = 2;
  random.s_multiplicity = 3;
  random.r_unmatched = 90;
  random.s_unmatched = 130;
  random.r_payload = 5;
  random.s_payload = 0;
  EXPECT_EQ(WorkloadDigest(GenerateWorkload(random)), 0xa3e8fe5410ca334aULL);

  WorkloadSpec intra;
  intra.num_nodes = 8;
  intra.seed = 12;
  intra.matched_keys = 600;
  intra.r_multiplicity = 5;
  intra.s_multiplicity = 3;
  intra.r_pattern = {2, 2, 1};
  intra.s_pattern = {1, 1, 1};
  intra.collocation = Collocation::kIntra;
  intra.collocated_fraction = 0.7;
  intra.r_unmatched = 40;
  intra.s_unmatched = 60;
  intra.r_payload = 9;
  intra.s_payload = 3;
  EXPECT_EQ(WorkloadDigest(GenerateWorkload(intra)), 0x76bd85837d094d5cULL);
}

}  // namespace
}  // namespace tj
