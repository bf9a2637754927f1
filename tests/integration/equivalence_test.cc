// Integration property test: every distributed join algorithm must produce
// exactly the same join output (cardinality and order-independent checksum)
// on the same inputs, across node counts, multiplicities, placement
// patterns, collocation modes, selectivities and payload widths — and the
// traffic ordering the paper proves must hold (4TJ <= 3TJ payload optimum,
// migration never hurts, etc.).
#include <gtest/gtest.h>

#include <vector>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/key_column_join.h"
#include "core/track_join.h"
#include "exec/local_join.h"
#include "exec/radix_sort.h"
#include "workload/generator.h"
#include "workload/real.h"

namespace tj {
namespace {

/// Ground truth: gather all tuples to one node and join locally.
JoinChecksum ReferenceJoin(const PartitionedTable& r, const PartitionedTable& s,
                           uint64_t* rows_out) {
  TupleBlock all_r(r.payload_width());
  TupleBlock all_s(s.payload_width());
  for (uint32_t node = 0; node < r.num_nodes(); ++node) {
    const TupleBlock& br = r.node(node);
    for (uint64_t row = 0; row < br.size(); ++row) all_r.AppendFrom(br, row);
    const TupleBlock& bs = s.node(node);
    for (uint64_t row = 0; row < bs.size(); ++row) all_s.AppendFrom(bs, row);
  }
  // Per-pair JoinChecksum::Accumulate, the digest's definition: the
  // reference shares no code with the drivers' group checksum.
  const uint32_t wr = r.payload_width(), ws = s.payload_width();
  JoinChecksum checksum;
  *rows_out = SortMergeJoin(
      &all_r, &all_s,
      [&](uint64_t key, const uint8_t* pr, const uint8_t* ps) {
        checksum.Accumulate(key, pr, wr, ps, ws);
      });
  return checksum;
}

struct Case {
  WorkloadSpec spec;
  const char* name;
};

class EquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(EquivalenceTest, AllAlgorithmsAgree) {
  const WorkloadSpec& spec = GetParam().spec;
  Workload w = GenerateWorkload(spec);

  uint64_t expected_rows = 0;
  JoinChecksum expected = ReferenceJoin(w.r, w.s, &expected_rows);
  EXPECT_EQ(expected_rows, w.expected_output_rows);

  JoinConfig config;
  config.key_bytes = 8;  // Generous: generated keys are dense 64-bit.

  struct Run {
    const char* name;
    JoinResult result;
  };
  std::vector<Run> runs;
  runs.push_back({"HJ", ValueOrDie(TryRunHashJoin(w.r, w.s, config))});
  runs.push_back({"BJ-R",
                  ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config,
                                                 Direction::kRtoS))});
  runs.push_back({"BJ-S",
                  ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config,
                                                 Direction::kStoR))});
  runs.push_back({"2TJ-R",
                  ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k2Phase,
                                             Direction::kRtoS))});
  runs.push_back({"2TJ-S",
                  ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k2Phase,
                                             Direction::kStoR))});
  runs.push_back({"3TJ",
                  ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k3Phase))});
  runs.push_back({"4TJ",
                  ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                             TrackJoinVersion::k4Phase))});

  for (const Run& run : runs) {
    EXPECT_EQ(run.result.output_rows, expected_rows) << run.name;
    EXPECT_EQ(run.result.checksum.count(), expected.count()) << run.name;
    EXPECT_EQ(run.result.checksum.digest(), expected.digest()) << run.name;
  }

  // Paper-proved traffic orderings (tuple payload classes only; tracking
  // overhead differs by design):
  // 4TJ's per-key schedules are never worse than 3TJ's schedule + location
  // traffic, since migration is only applied when it reduces cost.
  auto schedule_bytes = [](const JoinResult& res) {
    return res.traffic.NetworkBytes(TrafficClass::kRTuples) +
           res.traffic.NetworkBytes(TrafficClass::kSTuples) +
           res.traffic.NetworkBytes(TrafficClass::kKeysAndNodes);
  };
  const JoinResult& tj3 = runs[5].result;
  const JoinResult& tj4 = runs[6].result;
  EXPECT_LE(schedule_bytes(tj4), schedule_bytes(tj3));
}

// The zero-fault invariant: passing an inactive FaultPolicy{} must be
// indistinguishable from passing none — byte-identical results AND a
// byte-identical TrafficMatrix (no framing, no control traffic, no
// retransmit ledger entries), for every algorithm.
TEST_P(EquivalenceTest, InactiveFaultPolicyIsByteIdentical) {
  const WorkloadSpec& spec = GetParam().spec;
  Workload w = GenerateWorkload(spec);

  JoinConfig plain;
  plain.key_bytes = 8;
  FaultPolicy zero;
  ASSERT_FALSE(zero.active());
  JoinConfig inert = plain;
  inert.fault_policy = &zero;
  inert.fault_seed = 12345;  // Must be irrelevant.

  auto compare = [&](const char* name, const JoinResult& a,
                     const JoinResult& b) {
    EXPECT_EQ(a.output_rows, b.output_rows) << name;
    EXPECT_EQ(a.checksum.digest(), b.checksum.digest()) << name;
    EXPECT_TRUE(a.traffic == b.traffic) << name;
    EXPECT_EQ(b.traffic.TotalRetransmitBytes(), 0u) << name;
    EXPECT_EQ(b.reliability.retransmitted_frames, 0u) << name;
    EXPECT_EQ(b.reliability.nack_messages, 0u) << name;
    EXPECT_EQ(b.reliability.faults.frames_dropped, 0u) << name;
  };
  compare("HJ", ValueOrDie(TryRunHashJoin(w.r, w.s, plain)),
          ValueOrDie(TryRunHashJoin(w.r, w.s, inert)));
  compare("BJ-R",
          ValueOrDie(TryRunBroadcastJoin(w.r, w.s, plain, Direction::kRtoS)),
          ValueOrDie(TryRunBroadcastJoin(w.r, w.s, inert, Direction::kRtoS)));
  compare("2TJ-R",
          ValueOrDie(TryRunTrackJoin(w.r, w.s, plain, TrackJoinVersion::k2Phase,
                                     Direction::kRtoS)),
          ValueOrDie(TryRunTrackJoin(w.r, w.s, inert, TrackJoinVersion::k2Phase,
                                     Direction::kRtoS)));
  compare("3TJ",
          ValueOrDie(TryRunTrackJoin(w.r, w.s, plain,
                                     TrackJoinVersion::k3Phase)),
          ValueOrDie(TryRunTrackJoin(w.r, w.s, inert,
                                     TrackJoinVersion::k3Phase)));
  compare("4TJ",
          ValueOrDie(TryRunTrackJoin(w.r, w.s, plain,
                                     TrackJoinVersion::k4Phase)),
          ValueOrDie(TryRunTrackJoin(w.r, w.s, inert,
                                     TrackJoinVersion::k4Phase)));
}

WorkloadSpec Base() {
  WorkloadSpec s;
  s.num_nodes = 4;
  s.matched_keys = 200;
  s.r_payload = 12;
  s.s_payload = 24;
  s.seed = 99;
  return s;
}

std::vector<Case> MakeCases() {
  std::vector<Case> cases;

  WorkloadSpec s = Base();
  cases.push_back({s, "unique_random"});

  s = Base();
  s.s_multiplicity = 5;
  s.s_pattern = {5};
  s.collocation = Collocation::kIntra;
  cases.push_back({s, "s5_collocated"});

  s = Base();
  s.s_multiplicity = 5;
  s.s_pattern = {2, 2, 1};
  s.collocation = Collocation::kIntra;
  cases.push_back({s, "s5_pattern221"});

  s = Base();
  s.r_multiplicity = 5;
  s.s_multiplicity = 5;
  s.r_pattern = {5};
  s.s_pattern = {5};
  s.collocation = Collocation::kInter;
  cases.push_back({s, "both5_inter"});

  s = Base();
  s.r_multiplicity = 3;
  s.s_multiplicity = 4;
  s.collocation = Collocation::kRandom;
  cases.push_back({s, "multi_random"});

  s = Base();
  s.r_unmatched = 150;
  s.s_unmatched = 250;
  cases.push_back({s, "selective"});

  s = Base();
  s.num_nodes = 1;
  cases.push_back({s, "single_node"});

  s = Base();
  s.num_nodes = 16;
  s.matched_keys = 120;
  s.r_multiplicity = 2;
  s.s_multiplicity = 7;
  s.r_pattern = {1, 1};
  s.s_pattern = {4, 2, 1};
  s.collocation = Collocation::kIntra;
  s.r_unmatched = 60;
  s.s_unmatched = 60;
  cases.push_back({s, "sixteen_nodes_mixed"});

  s = Base();
  s.r_payload = 0;
  s.s_payload = 0;
  cases.push_back({s, "key_only_tuples"});

  s = Base();
  s.matched_keys = 1;
  s.r_multiplicity = 8;
  s.s_multiplicity = 8;
  cases.push_back({s, "single_hot_key"});

  s = Base();
  s.matched_keys = 0;
  s.r_unmatched = 100;
  s.s_unmatched = 100;
  cases.push_back({s, "no_matches"});

  return cases;
}

INSTANTIATE_TEST_SUITE_P(Workloads, EquivalenceTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.name;
                         });

TEST(JoinDigestTest, HashJoinDigestsPinnedByGoldenValues) {
  // Any change to the join checksum's value, or to the rows a driver
  // joins, changes these digests; a faster checksum must keep them. Y has
  // large key groups (many R rows times many S rows per key), X almost
  // only 1x1 groups.
  JoinConfig config;
  config.key_bytes = 8;
  auto hj = [&](const Workload& w) {
    JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
    uint64_t rows = 0;
    EXPECT_TRUE(result.checksum == ReferenceJoin(w.r, w.s, &rows));
    EXPECT_EQ(result.output_rows, rows);
    return result.checksum.digest();
  };
  EXPECT_EQ(hj(InstantiateReal(WorkloadY(), 8, 5000, true, 8)),
            0x4efab69df44d0590ULL);
  EXPECT_EQ(hj(InstantiateReal(WorkloadX(1), 8, 20000, true, 8)),
            0xc620b087edb46a2aULL);
}

/// The exact bytes of a run: network bytes per message type, their total,
/// the digest, the per-node output rows and a hash of the materialized
/// output in row order.
struct TrafficPin {
  uint64_t track_r, track_s, rid_r, rid_s, data_r, data_s, total, digest;
  std::vector<uint64_t> node_output_rows;
  uint64_t ordered_output;
};

/// Order-sensitive hash of every materialized row, node by node.
uint64_t OrderedOutputHash(const JoinResult& result) {
  uint64_t hash = 0;
  for (uint32_t node = 0; node < result.output->num_nodes(); ++node) {
    const TupleBlock& block = result.output->node(node);
    for (uint64_t row = 0; row < block.size(); ++row) {
      hash = HashKey(block.Key(row), hash);
      hash = HashBytes(block.Payload(row), block.payload_width(), hash);
    }
  }
  return hash;
}

void ExpectPinned(const JoinResult& result, const TrafficPin& pin,
                  const char* label) {
  const TrafficMatrix& t = result.traffic;
  EXPECT_EQ(t.NetworkBytes(MessageType::kTrackR), pin.track_r) << label;
  EXPECT_EQ(t.NetworkBytes(MessageType::kTrackS), pin.track_s) << label;
  EXPECT_EQ(t.NetworkBytes(MessageType::kRidR), pin.rid_r) << label;
  EXPECT_EQ(t.NetworkBytes(MessageType::kRidS), pin.rid_s) << label;
  EXPECT_EQ(t.NetworkBytes(MessageType::kDataR), pin.data_r) << label;
  EXPECT_EQ(t.NetworkBytes(MessageType::kDataS), pin.data_s) << label;
  EXPECT_EQ(t.TotalNetworkBytes(), pin.total) << label;
  EXPECT_EQ(result.checksum.digest(), pin.digest) << label;
  EXPECT_EQ(result.node_output_rows, pin.node_output_rows) << label;
  EXPECT_EQ(OrderedOutputHash(result), pin.ordered_output) << label;
}

TEST(JoinDigestTest, KeyColumnJoinTrafficPinnedByGoldenValues) {
  // rid-HJ and late-HJ ship key columns in row order, return rids and move
  // payloads; these pins fix every byte of that and the order of the
  // output rows, so swapping rid-HJ's exec and moving sides, or fetching
  // late-HJ's payloads other than once per pair in pair order, fails here.
  // Multiplicities 3 x 4 give every matched key a many-to-many group.
  JoinConfig config;
  config.key_bytes = 4;
  config.materialize = true;
  auto workload = [](uint32_t r_payload, uint32_t s_payload) {
    WorkloadSpec spec;
    spec.num_nodes = 4;
    spec.seed = 19;
    spec.matched_keys = 40;
    spec.r_multiplicity = 3;
    spec.s_multiplicity = 4;
    spec.r_unmatched = 20;
    spec.s_unmatched = 30;
    spec.r_payload = r_payload;
    spec.s_payload = s_payload;
    return GenerateWorkload(spec);
  };
  const Workload narrow = workload(0, 0);
  const Workload wide = workload(12, 40);
  ExpectPinned(ValueOrDie(TryRunRidHashJoin(narrow.r, narrow.s, config)),
               {460, 608, 396, 1490, 0, 1068, 4022, 0xf91b5ddd88153660ULL,
                {132, 108, 80, 160}, 0x4776d6cf67b1a66eULL}, "rid-hj 0/0");
  ExpectPinned(ValueOrDie(TryRunRidHashJoin(wide.r, wide.s, config)),
               {460, 608, 1395, 512, 3856, 0, 6831, 0xcbad080c9c5233aeULL,
                {141, 138, 90, 111}, 0x4e7f27ee0445f848ULL}, "rid-hj 12/40");
  ExpectPinned(
      ValueOrDie(TryRunLateMaterializedHashJoin(narrow.r, narrow.s, config)),
      {460, 608, 1584, 1536, 0, 0, 4188, 0xf91b5ddd88153660ULL,
       {120, 96, 168, 96}, 0x0a9127fed66d1c86ULL}, "late-hj 0/0");
  ExpectPinned(
      ValueOrDie(TryRunLateMaterializedHashJoin(wide.r, wide.s, config)),
      {460, 608, 1584, 1536, 4752, 15360, 24300, 0xcbad080c9c5233aeULL,
       {120, 96, 168, 96}, 0x0092931e8f144c5bULL}, "late-hj 12/40");
}

}  // namespace
}  // namespace tj
