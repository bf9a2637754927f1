// Behavioral tests of the track join drivers: traffic structure, locality
// exploitation, semi-join filtering, and agreement between the measured
// traffic and the per-key scheduler's planned costs.
#include "core/track_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/hash_join.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/pipelined_track_join.h"
#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/key_aggregate.h"
#include "exec/radix_sort.h"
#include "workload/generator.h"

namespace tj {
namespace {

JoinConfig TestConfig() {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 1;
  config.node_bytes = 1;
  return config;
}

TEST(TrackJoinTest, FullyCollocatedTransfersNoPayloads) {
  // Every matched key's R and S tuples on the same node: 4TJ must move no
  // tuples at all (paper Figure 6, 5,0,0... pattern: "track join eliminates
  // all transfers of payloads").
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 500;
  spec.r_multiplicity = 5;
  spec.s_multiplicity = 5;
  spec.r_pattern = {5};
  spec.s_pattern = {5};
  spec.collocation = Collocation::kInter;
  Workload w = GenerateWorkload(spec);

  JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, TestConfig(),
                                                 TrackJoinVersion::k4Phase));
  EXPECT_EQ(result.output_rows, w.expected_output_rows);
  EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kRTuples), 0u);
  EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kSTuples), 0u);
  // Tracking still crosses the network.
  EXPECT_GT(result.traffic.NetworkBytes(TrafficClass::kKeysAndCounts), 0u);
}

TEST(TrackJoinTest, UnmatchedKeysNeverShipTuples) {
  // Perfect semi-join filtering: keys present in only one table cost
  // tracking traffic but no locations and no tuples.
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 0;
  spec.r_unmatched = 1000;
  spec.s_unmatched = 1000;
  Workload w = GenerateWorkload(spec);
  for (auto version : {TrackJoinVersion::k2Phase, TrackJoinVersion::k3Phase,
                       TrackJoinVersion::k4Phase}) {
    JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, TestConfig(),
                                                   version));
    EXPECT_EQ(result.output_rows, 0u);
    EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kRTuples), 0u);
    EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kSTuples), 0u);
    EXPECT_EQ(result.traffic.NetworkBytes(TrafficClass::kKeysAndNodes), 0u);
  }
}

TEST(TrackJoinTest, TwoPhaseSendsOnlyChosenDirection) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 400;
  spec.r_payload = 8;
  spec.s_payload = 32;
  Workload w = GenerateWorkload(spec);

  JoinResult rs = ValueOrDie(TryRunTrackJoin(w.r, w.s, TestConfig(),
                                             TrackJoinVersion::k2Phase,
                                             Direction::kRtoS));
  EXPECT_EQ(rs.traffic.NetworkBytes(TrafficClass::kSTuples), 0u);
  EXPECT_GT(rs.traffic.NetworkBytes(TrafficClass::kRTuples), 0u);

  JoinResult sr = ValueOrDie(TryRunTrackJoin(w.r, w.s, TestConfig(),
                                             TrackJoinVersion::k2Phase,
                                             Direction::kStoR));
  EXPECT_EQ(sr.traffic.NetworkBytes(TrafficClass::kRTuples), 0u);
  EXPECT_GT(sr.traffic.NetworkBytes(TrafficClass::kSTuples), 0u);
}

TEST(TrackJoinTest, ThreePhasePicksCheaperSidePerKey) {
  // Unique keys, wide S payloads: 3TJ must ship R tuples (narrow side),
  // matching 2TJ-R, and beat 2TJ-S.
  WorkloadSpec spec;
  spec.num_nodes = 8;
  spec.matched_keys = 500;
  spec.r_payload = 4;
  spec.s_payload = 56;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();

  uint64_t tj3_payload =
      ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase))
          .traffic.NetworkBytes(TrafficClass::kRTuples) +
      ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k3Phase))
          .traffic.NetworkBytes(TrafficClass::kSTuples);
  uint64_t tj2s_payload =
      ValueOrDie(TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k2Phase,
                                 Direction::kStoR))
          .traffic.NetworkBytes(TrafficClass::kSTuples);
  EXPECT_LT(tj3_payload, tj2s_payload);
}

/// Recomputes the planned per-key costs straight from the input tables and
/// compares with the driver's measured schedule-phase traffic: location
/// messages + migration instructions + all tuple transfers.
uint64_t PlannedCost(const Workload& w, const JoinConfig& config,
                     TrackJoinVersion version, Direction dir2) {
  const uint32_t n = w.r.num_nodes();
  std::vector<TrackEntry> r_entries, s_entries;
  for (uint32_t node = 0; node < n; ++node) {
    TupleBlock block = w.r.node(node);
    for (const auto& kc : AggregateKeys(block)) {
      r_entries.push_back({kc.key, node, static_cast<uint32_t>(kc.count)});
    }
    block = w.s.node(node);
    for (const auto& kc : AggregateKeys(block)) {
      s_entries.push_back({kc.key, node, static_cast<uint32_t>(kc.count)});
    }
  }
  MergeTrackEntries(&r_entries);
  MergeTrackEntries(&s_entries);
  uint64_t width_r = config.key_bytes + w.r.payload_width();
  uint64_t width_s = config.key_bytes + w.s.payload_width();
  uint64_t total = 0;
  // Placements must use the same tracker the driver uses: hash(key) % n.
  PlacementIterator it(r_entries, s_entries, width_r, width_s, /*tracker=*/0,
                       config.MsgBytes());
  while (it.Next()) {
    KeyPlacement p = it.placement();
    p.tracker = HashPartition(it.key(), n);
    switch (version) {
      case TrackJoinVersion::k2Phase:
        total += SelectiveBroadcastCost(p, dir2);
        break;
      case TrackJoinVersion::k3Phase: {
        uint64_t cost = 0;
        CheaperBroadcastDirection(p, &cost);
        total += cost;
        break;
      }
      case TrackJoinVersion::k4Phase:
        total += PlanOptimal(p).plan.cost;
        break;
    }
  }
  return total;
}

uint64_t MeasuredScheduleBytes(const JoinResult& result) {
  return result.traffic.NetworkBytes(TrafficClass::kKeysAndNodes) +
         result.traffic.NetworkBytes(TrafficClass::kRTuples) +
         result.traffic.NetworkBytes(TrafficClass::kSTuples);
}

class PlannedVsMeasured
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(PlannedVsMeasured, DriverTrafficMatchesScheduler) {
  auto [version_int, seed] = GetParam();
  auto version = static_cast<TrackJoinVersion>(version_int);
  WorkloadSpec spec;
  spec.num_nodes = 5;
  spec.matched_keys = 200;
  spec.r_multiplicity = 3;
  spec.s_multiplicity = 2;
  spec.r_payload = 10;
  spec.s_payload = 20;
  spec.r_unmatched = 100;
  spec.s_unmatched = 50;
  spec.seed = seed;
  Workload w = GenerateWorkload(spec);
  JoinConfig config = TestConfig();

  JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, config, version,
                                                 Direction::kRtoS));
  EXPECT_EQ(result.output_rows, w.expected_output_rows);
  EXPECT_EQ(MeasuredScheduleBytes(result),
            PlannedCost(w, config, version, Direction::kRtoS));
}

INSTANTIATE_TEST_SUITE_P(
    Versions, PlannedVsMeasured,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(TrackJoinTest, PhaseBreakdownIsComplete) {
  WorkloadSpec spec;
  spec.matched_keys = 50;
  Workload w = GenerateWorkload(spec);
  JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, TestConfig(),
                                                 TrackJoinVersion::k4Phase));
  ASSERT_GE(result.phase_seconds.size(), 9u);
  EXPECT_EQ(result.phase_seconds.front().first, "sort local R tuples");
  EXPECT_EQ(result.phase_seconds.back().first, "final merge-join S->R");
}

TEST(TrackJoinTest, CompressionTogglesPreserveResults) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 300;
  spec.s_multiplicity = 3;
  Workload w = GenerateWorkload(spec);
  JoinConfig plain = TestConfig();
  JoinConfig compressed = TestConfig();
  compressed.delta_tracking = true;
  compressed.group_locations = true;

  JoinResult a = ValueOrDie(TryRunTrackJoin(w.r, w.s, plain,
                                            TrackJoinVersion::k4Phase));
  JoinResult b = ValueOrDie(TryRunTrackJoin(w.r, w.s, compressed,
                                            TrackJoinVersion::k4Phase));
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_EQ(a.checksum.digest(), b.checksum.digest());
  // Dense keys: compressed tracking must not exceed plain tracking.
  EXPECT_LE(b.traffic.NetworkBytes(TrafficClass::kKeysAndCounts),
            a.traffic.NetworkBytes(TrafficClass::kKeysAndCounts));
  // Tuples shipped are identical.
  EXPECT_EQ(a.traffic.NetworkBytes(TrafficClass::kRTuples),
            b.traffic.NetworkBytes(TrafficClass::kRTuples));
}


/// `keys` (ascending unless a test wants otherwise) as one serialized data
/// message from `src`; each row's payload bytes name the message and row.
Message RowMessage(uint32_t src, const std::vector<uint64_t>& keys,
                   uint32_t width, uint32_t key_bytes) {
  TupleBlock rows(width);
  std::vector<uint8_t> payload(width);
  for (size_t i = 0; i < keys.size(); ++i) {
    for (uint32_t b = 0; b < width; ++b) {
      payload[b] = static_cast<uint8_t>(src * 61 + i * 7 + b);
    }
    rows.Append(keys[i], payload.data());
  }
  Message msg{src, MessageType::kDataR, {}};
  rows.SerializeRows(0, rows.size(), key_bytes, &msg.data);
  return msg;
}

std::vector<uint64_t> SortedKeys(Rng* rng, size_t count, uint64_t domain) {
  std::vector<uint64_t> keys(count);
  for (uint64_t& key : keys) key = rng->Below(domain);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Phase 8's merge against the receive-and-sort it replaced: merging the
// messages into the kept rows equals appending every message in inbox
// order and stably sorting, row for row, with keys repeating within runs,
// across runs and against the kept rows.
TEST(MergeReceivedRowsTest, EqualsStableSortOfConcatenation) {
  Rng rng(41);
  for (uint32_t key_bytes : {1u, 3u, 8u}) {
    for (uint32_t width : {0u, 5u, 12u}) {
      for (size_t local_rows : {size_t{0}, size_t{40}}) {
        for (uint32_t runs : {1u, 3u, 8u}) {
          TupleBlock local(width);
          std::vector<uint8_t> payload(width, 0xaa);
          for (uint64_t key : SortedKeys(&rng, local_rows, 30)) {
            local.Append(key, payload.data());
          }
          std::vector<Message> msgs;
          for (uint32_t src = 0; src < runs; ++src) {
            const std::vector<uint64_t> keys =
                SortedKeys(&rng, rng.Below(25), 30);
            msgs.push_back(RowMessage(src % 4, keys, width, key_bytes));
          }
          TupleBlock expected = local;
          for (const Message& msg : msgs) {
            ByteReader reader(msg.data);
            ASSERT_TRUE(expected.TryDeserializeRows(&reader, key_bytes).ok());
          }
          SortBlockByKey(&expected);
          TupleBlock merged = local;
          ASSERT_TRUE(TryMergeReceivedRows(msgs, key_bytes, &merged).ok());
          ASSERT_EQ(merged.size(), expected.size());
          EXPECT_EQ(merged.keys(), expected.keys());
          for (uint64_t row = 0; row < merged.size() && width > 0; ++row) {
            EXPECT_EQ(0, std::memcmp(merged.Payload(row),
                                     expected.Payload(row), width))
                << "row " << row << " key_bytes=" << key_bytes
                << " width=" << width << " runs=" << runs;
          }
        }
      }
    }
  }
}

// Malformed data messages fail phase 8's merge with Corruption and leave
// the block as it was, for the probe merge (no kept rows) and for the
// migration merge (into kept rows) alike.
TEST(MergeReceivedRowsTest, RejectsPartialRowsAndDescendingRuns) {
  for (bool kept : {false, true}) {
    TupleBlock block(2);
    const uint8_t payload[2] = {1, 2};
    if (kept) {
      for (uint64_t key : {1, 4, 9}) block.Append(key, payload);
    }
    const TupleBlock before = block;
    std::vector<Message> msgs = {RowMessage(0, {2, 3}, 2, 4),
                                 RowMessage(1, {5, 8}, 2, 4)};
    msgs[1].data.pop_back();
    Status status = TryMergeReceivedRows(msgs, 4, &block);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_EQ(block.keys(), before.keys());

    msgs = {RowMessage(0, {2, 3}, 2, 4), RowMessage(3, {5, 8, 6}, 2, 4)};
    status = TryMergeReceivedRows(msgs, 4, &block);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.ToString().find("node 3"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(block.keys(), before.keys());
  }
}

/// One side of a final join: a kept run, rows [first, last) of `block`
/// (payloads that name their row), and `runs` received messages, keys from
/// a small domain so they tie within runs, across runs and with the kept
/// rows; some runs are empty. Rows outside the kept run carry keys out of
/// order, so a view that strays past its range shows.
struct JoinSide {
  TupleBlock block{0};
  uint64_t first = 0;
  uint64_t last = 0;
  std::vector<Message> runs;

  /// The kept run as a block of its own.
  TupleBlock Kept() const {
    TupleBlock kept(block.payload_width());
    for (uint64_t row = first; row < last; ++row) kept.AppendFrom(block, row);
    return kept;
  }
};

JoinSide RandomSide(Rng* rng, uint32_t width, uint32_t key_bytes,
                    size_t kept_rows, uint32_t runs, uint64_t domain) {
  JoinSide side;
  side.block = TupleBlock(width);
  std::vector<uint8_t> payload(width);
  uint32_t row = 0;
  auto append = [&](uint64_t key) {
    for (uint32_t b = 0; b < width; ++b) {
      payload[b] = static_cast<uint8_t>(200 + row * 3 + b);
    }
    side.block.Append(key, payload.data());
    ++row;
  };
  const uint64_t padding = kept_rows > 0 ? rng->Below(3) : 0;
  for (uint64_t i = 0; i < padding; ++i) append(domain - 1 - i);
  side.first = side.block.size();
  for (uint64_t key : SortedKeys(rng, kept_rows, domain)) append(key);
  side.last = side.block.size();
  for (uint64_t i = 0; i < padding; ++i) append(i);
  for (uint32_t src = 0; src < runs; ++src) {
    const size_t rows = rng->Below(3) == 0 ? 0 : rng->Below(20);
    side.runs.push_back(
        RowMessage(src, SortedKeys(rng, rows, domain), width, key_bytes));
  }
  return side;
}

/// The longest stretch of the kept run's rows, below the other side's
/// largest key, whose keys the other side lacks: rows a merge join skips.
uint64_t LongestSkip(const JoinSide& kept_side, const TupleBlock& other) {
  if (other.empty()) return 0;
  uint64_t longest = 0, stretch = 0;
  for (uint64_t row = kept_side.first; row < kept_side.last; ++row) {
    const uint64_t key = kept_side.block.Key(row);
    if (key >= other.keys().back()) break;
    const auto [lo, hi] = other.EqualRange(key);
    stretch = lo == hi ? stretch + 1 : 0;
    longest = std::max(longest, stretch);
  }
  return longest;
}

/// Every key group a join hands its sink, payloads copied out in order.
struct RecordedGroup {
  uint64_t key;
  std::vector<uint8_t> r;
  std::vector<uint8_t> s;
  uint64_t r_rows;
  uint64_t s_rows;
  bool operator==(const RecordedGroup&) const = default;
};

JoinSink RecordingSink(std::vector<RecordedGroup>* groups) {
  return JoinSink::ForGroups(
      [groups](uint64_t key, const PayloadRun& r, const PayloadRun& s) {
        RecordedGroup group{key, {}, {}, r.size, s.size};
        for (uint64_t i = 0; i < r.size; ++i) {
          group.r.insert(group.r.end(), r[i], r[i] + r.width);
        }
        for (uint64_t j = 0; j < s.size; ++j) {
          group.s.insert(group.s.end(), s[j], s[j] + s.width);
        }
        groups->push_back(std::move(group));
      });
}

// Both drivers' final joins read merged views. On random sides (a kept
// run or none, inside a larger block or not, any number of runs, empty
// runs, zero-width payloads, ties everywhere, and long kept runs whose
// skips gallop past more than 16 rows) the views hand the sink the same
// groups, with the same payload order, as merging the runs into blocks and
// merge-joining those, and materialize the same rows byte for byte.
TEST(MergedRunsTest, JoinEqualsMergeThenMergeJoinSorted) {
  Rng rng(43);
  uint64_t longest_skip = 0;
  for (uint32_t key_bytes : {1u, 3u, 8u}) {
    for (uint32_t width_r : {0u, 6u}) {
      for (uint32_t width_s : {0u, 9u}) {
        for (int trial = 0; trial < 16; ++trial) {
          const bool r_kept = trial % 2 == 0;
          const bool s_kept = trial % 3 == 0;
          // Half the trials: a long kept run over a wider domain, so the
          // other side's keys sit tens of kept rows apart.
          const bool long_runs = trial % 4 == 1 || trial % 4 == 2;
          const uint64_t domain = long_runs ? 100 : 25;
          auto kept_rows = [&](bool kept) -> size_t {
            if (!kept) return 0;
            return long_runs ? 100 + rng.Below(300) : rng.Below(30);
          };
          const JoinSide r_side =
              RandomSide(&rng, width_r, key_bytes, kept_rows(r_kept),
                         static_cast<uint32_t>(rng.Below(6)), domain);
          const JoinSide s_side =
              RandomSide(&rng, width_s, key_bytes, kept_rows(s_kept),
                         static_cast<uint32_t>(rng.Below(6)), domain);
          ASSERT_TRUE(
              TryCheckReceivedRuns(r_side.runs, key_bytes, width_r).ok());
          ASSERT_TRUE(
              TryCheckReceivedRuns(s_side.runs, key_bytes, width_s).ok());

          TupleBlock r_block = r_side.Kept();
          TupleBlock s_block = s_side.Kept();
          ASSERT_TRUE(
              TryMergeReceivedRows(r_side.runs, key_bytes, &r_block).ok());
          ASSERT_TRUE(
              TryMergeReceivedRows(s_side.runs, key_bytes, &s_block).ok());
          longest_skip = std::max({longest_skip, LongestSkip(r_side, s_block),
                                   LongestSkip(s_side, r_block)});
          std::vector<RecordedGroup> expected, actual;
          const uint64_t expected_rows =
              MergeJoinSorted(r_block, s_block, RecordingSink(&expected));

          auto view = [&](const JoinSide& side, bool kept, uint32_t width) {
            return std::make_unique<MergedRuns>(
                kept ? &side.block : nullptr, side.first, side.last,
                BytesOf(side.runs), key_bytes, width);
          };
          auto join = [&](const JoinSink& sink) {
            auto r_runs = view(r_side, r_kept, width_r);
            auto s_runs = view(s_side, s_kept, width_s);
            EXPECT_EQ(r_runs->rows(), r_block.size());
            EXPECT_EQ(s_runs->rows(), s_block.size());
            return MergeJoinRuns(r_runs.get(), s_runs.get(), sink);
          };
          EXPECT_EQ(join(RecordingSink(&actual)), expected_rows);
          EXPECT_EQ(actual, expected)
              << "key_bytes=" << key_bytes << " width_r=" << width_r
              << " width_s=" << width_s << " trial=" << trial;

          TupleBlock want(width_r + width_s), got(width_r + width_s);
          JoinChecksum want_sum, got_sum;
          MergeJoinSorted(r_block, s_block,
                          MaterializeSink(&want, &want_sum, width_r, width_s));
          join(MaterializeSink(&got, &got_sum, width_r, width_s));
          EXPECT_EQ(got.keys(), want.keys());
          EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
          for (uint64_t row = 0; row < got.size() && got.payload_width() > 0;
               ++row) {
            ASSERT_EQ(0, std::memcmp(got.Payload(row), want.Payload(row),
                                     got.payload_width()))
                << "row " << row;
          }
          EXPECT_TRUE(got_sum == want_sum);
        }
      }
    }
  }
  // The skips reached GallopPast's galloping branch.
  EXPECT_GT(longest_skip, 16u);
}

// A malformed data run fails the query in phase 8, before any join output:
// node 1's R partition carries 3-byte payloads where the table (node 0's
// partition) declares 2, so the R run it sends to node 2 (wide S rows never
// move) is not a whole number of rows.
TEST(TrackJoinTest, MalformedDataRunFailsInMergeReceivedTuples) {
  PartitionedTable r("R", 3, 2);
  PartitionedTable s("S", 3, 20);
  const uint8_t payload[20] = {1, 2, 3};
  r.node(1) = TupleBlock(3);
  r.node(1).Append(7, payload);
  s.node(2).Append(7, payload);
  for (TrackJoinVersion version :
       {TrackJoinVersion::k2Phase, TrackJoinVersion::k3Phase,
        TrackJoinVersion::k4Phase}) {
    JoinConfig config = TestConfig();
    config.materialize = true;
    RunDiagnostics diagnostics;
    config.diagnostics = &diagnostics;
    const Result<JoinResult> result =
        TryRunTrackJoin(r, s, config, version, Direction::kRtoS);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("not a multiple of row size"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_EQ(diagnostics.failure.phase, "merge received tuples");
  }
}

// The barrier holder concatenates every tracker's instruction list; routing
// merges them by key, so each destination's rows ascend.
TEST(TrackJoinTest, ConcatenatedInstructionListsRouteInKeyOrder) {
  TupleBlock block(0);
  for (uint64_t key : {1, 1, 3, 4, 4, 5, 7, 9, 9}) block.Append(key, nullptr);
  // Three trackers' lists, each ascending.
  const std::vector<KeyNodePair> pairs = {
      {4, 0}, {9, 1},          // tracker 0
      {1, 0}, {5, 1}, {7, 0},  // tracker 1
      {3, 1}, {9, 0}};         // tracker 2
  std::vector<std::vector<uint32_t>> rows(2);
  RouteInstructedRows(block, pairs, /*split=*/false, &rows);
  EXPECT_EQ(rows[0], (std::vector<uint32_t>{0, 1, 3, 4, 6, 7, 8}));
  EXPECT_EQ(rows[1], (std::vector<uint32_t>{2, 5, 7, 8}));
}

// The barrier tracker merges its received runs in key-range batches of
// about kTrackBatchEntries entries and plans each as it is merged; the
// planner's balance state carries across batches in key order, so a run
// whose trackers each hold several batches schedules every key exactly as
// the pipelined driver's frontier batches do, hot splits included.
TEST(TrackJoinTest, BatchedTrackerPlansLikeThePipelinedDriver) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 12000;
  spec.r_multiplicity = 6;
  spec.s_multiplicity = 12;
  spec.r_pattern = {3, 2, 1};
  spec.s_pattern = {6, 4, 2};
  const Workload w = GenerateWorkload(spec);
  // Every tracker receives one entry per distinct (key, node) of each
  // table: more than one batch's worth.
  std::vector<uint64_t> tracked(spec.num_nodes, 0);
  for (const PartitionedTable* table : {&w.r, &w.s}) {
    for (uint32_t node = 0; node < spec.num_nodes; ++node) {
      for (const KeyCount& kc : AggregateKeys(table->node(node))) {
        ++tracked[HashPartition(kc.key, spec.num_nodes)];
      }
    }
  }
  for (uint64_t entries : tracked) EXPECT_GT(entries, kTrackBatchEntries);

  JoinConfig config = TestConfig();
  config.balance_loads = true;
  config.hot_key_threshold = 36;
  config.hot_key_max_split = 3;
  ScheduleAuditLog barrier_audit, pipelined_audit;
  config.schedule_audit = &barrier_audit;
  const Result<JoinResult> barrier =
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(barrier.ok()) << barrier.status().ToString();
  config.schedule_audit = &pipelined_audit;
  const Result<JoinResult> pipelined =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();

  EXPECT_EQ(barrier->output_rows, w.expected_output_rows);
  EXPECT_TRUE(barrier->checksum == pipelined->checksum);
  EXPECT_TRUE(barrier->traffic == pipelined->traffic);
  const std::vector<KeyScheduleAudit> keys = barrier_audit.Collect();
  EXPECT_EQ(keys, pipelined_audit.Collect());
  EXPECT_TRUE(std::any_of(keys.begin(), keys.end(),
                          [](const KeyScheduleAudit& key) {
                            return key.chosen_split > 0;
                          }));
}

}  // namespace
}  // namespace tj
