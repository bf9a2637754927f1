// Materialized-output tests: every algorithm must materialize the exact
// same multiset of <key | payloadR | payloadS> rows, and materialized
// outputs must chain into further joins.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/key_column_join.h"
#include "core/pipelined_track_join.h"
#include "core/track_join.h"
#include "workload/generator.h"

namespace tj {
namespace {

/// Order-independent fingerprint of a materialized table: sorted row
/// hashes.
std::vector<uint64_t> RowHashes(const PartitionedTable& table) {
  std::vector<uint64_t> hashes;
  for (uint32_t node = 0; node < table.num_nodes(); ++node) {
    const TupleBlock& block = table.node(node);
    for (uint64_t row = 0; row < block.size(); ++row) {
      uint64_t h = HashKey(block.Key(row));
      h = HashMix64(h ^ HashBytes(block.Payload(row), block.payload_width()));
      hashes.push_back(h);
    }
  }
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

/// Order-sensitive fingerprint of a materialized table: every node's rows
/// hashed in the order the driver produced them.
uint64_t OrderedFingerprint(const PartitionedTable& table) {
  uint64_t h = 0;
  for (uint32_t node = 0; node < table.num_nodes(); ++node) {
    const TupleBlock& block = table.node(node);
    h = HashMix64(h ^ HashKey(node, /*seed=*/1));
    for (uint64_t row = 0; row < block.size(); ++row) {
      h = HashMix64(h ^ HashKey(block.Key(row)));
      h = HashMix64(h ^ HashBytes(block.Payload(row), block.payload_width()));
    }
  }
  return h;
}

// The barrier track-join driver's materialized rows, row for row. Each node
// joins its received tuples in key order, and equal keys in the order a
// stable sort of its kept rows followed by its inbox, message by message,
// leaves them; the fingerprints pin that order as the sort-based receive
// path produced it. Covers 2TJ in both directions, 3TJ, 4TJ with
// migrations and with hot-split fragments, each with plain and node-grouped
// locations and with reordered delivery.
TEST(MaterializeTest, BarrierTrackJoinRowOrderPinned) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 300;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 6;
  spec.s_payload = 10;
  spec.r_unmatched = 50;
  spec.s_unmatched = 70;
  const Workload uniform = GenerateWorkload(spec);
  ZipfWorkloadSpec zipf_spec;
  zipf_spec.num_nodes = 8;
  zipf_spec.key_domain = 4000;
  zipf_spec.r_rows = 8000;
  zipf_spec.s_rows = 8000;
  zipf_spec.r_theta = 1.2;
  zipf_spec.s_theta = 1.2;
  zipf_spec.seed = 99;
  const Workload zipf = ValueOrDie(TryGenerateZipfWorkload(zipf_spec));
  FaultPolicy reorder;
  reorder.reorder = 0.5;

  struct Case {
    const char* name;
    TrackJoinVersion version;
    Direction direction;
    bool hot;  ///< Zipf input with hot-key splitting.
    uint64_t fingerprint[3];  ///< Plain, grouped, reordered.
  };
  const Case cases[] = {
      {"2TJ-R", TrackJoinVersion::k2Phase, Direction::kRtoS, false,
       {0x3fae9ed53d4223ea, 0x3fae9ed53d4223ea, 0xdd16d7dda780ae5a}},
      {"2TJ-S", TrackJoinVersion::k2Phase, Direction::kStoR, false,
       {0x8578d3df43786783, 0x8578d3df43786783, 0xe1c351563d21f97e}},
      {"3TJ", TrackJoinVersion::k3Phase, Direction::kRtoS, false,
       {0x64c30d74273d9463, 0x64c30d74273d9463, 0xbfa9462413479939}},
      {"4TJ", TrackJoinVersion::k4Phase, Direction::kRtoS, false,
       {0x0c9f1afa72ed3fa5, 0x0c9f1afa72ed3fa5, 0x0c9f1afa72ed3fa5}},
      {"4TJ-hot", TrackJoinVersion::k4Phase, Direction::kRtoS, true,
       {0x23d5639b12fd4de2, 0x23d5639b12fd4de2, 0xb95479a31f286339}},
  };
  for (const Case& c : cases) {
    const Workload& w = c.hot ? zipf : uniform;
    for (int variant = 0; variant < 3; ++variant) {
      JoinConfig config;
      config.key_bytes = 4;
      config.materialize = true;
      if (c.hot) config.hot_key_threshold = 10000;
      config.group_locations = variant == 1;
      if (variant == 2) {
        config.fault_policy = &reorder;
        config.fault_seed = 7;
      }
      const JoinResult result = ValueOrDie(
          TryRunTrackJoin(w.r, w.s, config, c.version, c.direction));
      ASSERT_TRUE(result.output.has_value());
      if (c.version == TrackJoinVersion::k4Phase) {
        EXPECT_GT(result.traffic.NetworkBytes(MessageType::kMigrationDataR) +
                      result.traffic.NetworkBytes(MessageType::kMigrationDataS),
                  0u)
            << c.name;
      }
      if (c.hot) {
        EXPECT_GT(result.traffic.NetworkBytes(MessageType::kFragmentR) +
                      result.traffic.NetworkBytes(MessageType::kFragmentS),
                  0u);
      }
      EXPECT_EQ(OrderedFingerprint(*result.output), c.fingerprint[variant])
          << c.name << " variant " << variant << " fingerprint 0x" << std::hex
          << OrderedFingerprint(*result.output);
    }
  }
}

TEST(MaterializeTest, AllAlgorithmsProduceSameRows) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 300;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_payload = 6;
  spec.s_payload = 10;
  spec.r_unmatched = 50;
  spec.s_unmatched = 70;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;
  config.materialize = true;

  JoinResult reference = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
  ASSERT_TRUE(reference.output.has_value());
  EXPECT_EQ(reference.output->TotalRows(), reference.output_rows);
  EXPECT_EQ(reference.output->payload_width(), 16u);
  std::vector<uint64_t> expected = RowHashes(*reference.output);

  auto check = [&](const char* name, const JoinResult& result) {
    ASSERT_TRUE(result.output.has_value()) << name;
    EXPECT_EQ(result.output->TotalRows(), reference.output_rows) << name;
    EXPECT_EQ(RowHashes(*result.output), expected) << name;
  };
  check("BJ-R",
        ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config, Direction::kRtoS)));
  check("BJ-S",
        ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config, Direction::kStoR)));
  check("2TJ-R",
        ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                                   Direction::kRtoS)));
  check("2TJ-S",
        ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                                   Direction::kStoR)));
  check(
      "3TJ",
      ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase)));
  check(
      "4TJ",
      ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase)));
  check("rid-HJ", ValueOrDie(TryRunRidHashJoin(w.r, w.s, config)));
  check(
      "late-HJ", ValueOrDie(TryRunLateMaterializedHashJoin(w.r, w.s, config)));
}

TEST(MaterializeTest, EveryDriverFillsNodeOutputRows) {
  // Per-node output rows come from the shared output collector: one entry
  // per node, summing to output_rows and to the checksum's row count, on
  // every barrier driver and every pipelined track join.
  WorkloadSpec spec;
  spec.num_nodes = 5;
  spec.matched_keys = 400;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  spec.r_unmatched = 40;
  spec.s_unmatched = 60;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;

  auto check = [&](const char* name, const JoinResult& result) {
    ASSERT_EQ(result.node_output_rows.size(), spec.num_nodes) << name;
    const uint64_t total =
        std::accumulate(result.node_output_rows.begin(),
                        result.node_output_rows.end(), uint64_t{0});
    EXPECT_EQ(total, result.output_rows) << name;
    EXPECT_EQ(total, result.checksum.count()) << name;
    EXPECT_EQ(total, uint64_t{400} * 2 * 3) << name;
  };
  check("BJ-R",
        ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config, Direction::kRtoS)));
  check("BJ-S",
        ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config, Direction::kStoR)));
  check("HJ", ValueOrDie(TryRunHashJoin(w.r, w.s, config)));
  check("rid-HJ", ValueOrDie(TryRunRidHashJoin(w.r, w.s, config)));
  check("late-HJ",
        ValueOrDie(TryRunLateMaterializedHashJoin(w.r, w.s, config)));
  struct TrackVariant {
    const char* name;
    TrackJoinVersion version;
    Direction direction;
  };
  for (const TrackVariant& v :
       {TrackVariant{"2TJ-R", TrackJoinVersion::k2Phase, Direction::kRtoS},
        TrackVariant{"2TJ-S", TrackJoinVersion::k2Phase, Direction::kStoR},
        TrackVariant{"3TJ", TrackJoinVersion::k3Phase, Direction::kRtoS},
        TrackVariant{"4TJ", TrackJoinVersion::k4Phase, Direction::kRtoS}}) {
    check(v.name, ValueOrDie(TryRunTrackJoin(w.r, w.s, config, v.version,
                                             v.direction)));
    check(v.name, ValueOrDie(TryRunPipelinedTrackJoin(w.r, w.s, config,
                                                      v.version, v.direction)));
  }
}

TEST(MaterializeTest, OffByDefault) {
  WorkloadSpec spec;
  spec.matched_keys = 50;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;
  JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                 TrackJoinVersion::k4Phase));
  EXPECT_FALSE(result.output.has_value());
}

TEST(MaterializeTest, RowsContainBothPayloads) {
  // One matched pair with known payload bytes.
  PartitionedTable r("R", 2, 2), s("S", 2, 3);
  uint8_t pr[2] = {0xaa, 0xbb};
  uint8_t ps[3] = {0x11, 0x22, 0x33};
  r.node(0).Append(7, pr);
  s.node(1).Append(7, ps);
  JoinConfig config;
  config.key_bytes = 4;
  config.materialize = true;
  JoinResult result = ValueOrDie(TryRunTrackJoin(r, s, config,
                                                 TrackJoinVersion::k4Phase));
  ASSERT_TRUE(result.output.has_value());
  ASSERT_EQ(result.output->TotalRows(), 1u);
  for (uint32_t node = 0; node < 2; ++node) {
    const TupleBlock& block = result.output->node(node);
    for (uint64_t row = 0; row < block.size(); ++row) {
      EXPECT_EQ(block.Key(row), 7u);
      const uint8_t* p = block.Payload(row);
      EXPECT_EQ(p[0], 0xaa);
      EXPECT_EQ(p[1], 0xbb);
      EXPECT_EQ(p[2], 0x11);
      EXPECT_EQ(p[3], 0x22);
      EXPECT_EQ(p[4], 0x33);
    }
  }
}

TEST(MaterializeTest, OutputChainsIntoNextJoin) {
  // Join twice: (R join S) re-keyed on a byte of R's payload joins a third
  // table keyed on that byte's value.
  WorkloadSpec spec;
  spec.num_nodes = 3;
  spec.matched_keys = 256;
  spec.r_payload = 4;
  spec.s_payload = 4;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;
  config.materialize = true;
  JoinResult first = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
  ASSERT_TRUE(first.output.has_value());

  // Re-key on the first payload byte: values 0..255.
  PartitionedTable rekeyed =
      RekeyByPayloadField(*first.output, /*offset=*/0, /*bytes=*/1, "mid");
  // Third table: one row per possible byte value.
  PartitionedTable t3("T3", 3, 0);
  for (uint64_t v = 0; v < 256; ++v) t3.node(v % 3).Append(v, nullptr);
  JoinResult second = ValueOrDie(TryRunTrackJoin(rekeyed, t3, config,
                                                 TrackJoinVersion::k4Phase));
  // Every intermediate row has exactly one match.
  EXPECT_EQ(second.output_rows, first.output_rows);
}

}  // namespace
}  // namespace tj
