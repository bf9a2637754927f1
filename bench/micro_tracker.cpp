// Tracker hot-path microbench: the loser-tree k-way merge over per-source
// sorted tracking messages (TryMergeTrackingMessages) versus the reference
// decode-concatenate-sort path (TryDecodeTrackingMessage +
// MergeTrackEntries), in wire entries per second, and the tracking encoder
// (EncodeTrackingMessages), in keys per second.
//
// The grid varies the source count k (the merge fan-in, i.e. cluster
// size from the tracker's point of view) and the cross-source duplication
// factor (how many sources hold each key — Section 2.2's "aggregate at
// the destination" case). Every timed rep writes into fresh output
// vectors, as a query does. Prints one JSON object to stdout;
// tools/bench_smoke.py gates the headline "tracker_merge_tps" and
// "tracker_encode_tps" against tools/bench_baseline.json, and the same-run
// ratio "tracker_merge_over_reference" (merge over reference throughput at
// the headline point) against a floor of its own.
//
//   --scale=<divisor>  divide the 1Mi-entry base input by this (default 4).
//   --seed=<n>         key-draw seed.
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/tracker.h"
#include "exec/radix_sort.h"

namespace tj {
namespace bench {

constexpr int kReps = 3;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-kReps wall seconds of `fn` (cold-cache noise goes to the max).
template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    double start = Now();
    fn();
    best = std::min(best, Now() - start);
  }
  return best;
}

/// One source node's aggregated key projection: `entries` draws (with
/// replacement, so within-source repeats become counts) from a universe of
/// `total / dup` keys, so each key lands on ~`dup` sources.
std::vector<KeyCount> MakeSource(Rng* rng, uint64_t entries,
                                 uint64_t universe) {
  std::vector<uint64_t> keys(entries);
  for (uint64_t& k : keys) k = rng->Next() % universe;
  RadixSortKeys(&keys);
  std::vector<KeyCount> out;
  uint64_t i = 0;
  while (i < keys.size()) {
    uint64_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    out.push_back(KeyCount{keys[i], j - i});
    i = j;
  }
  return out;
}

struct GridPoint {
  uint32_t sources;
  uint64_t dup;
  bool delta;
  uint64_t wire_entries;
  uint64_t merged;
  double merge_tps;
  double reference_tps;
  double encode_tps;
};

/// The headline encode shape: each source's keys spread over this many
/// destinations, as in an 8-node cluster.
constexpr uint32_t kEncodeDestinations = 8;

/// Builds k single-destination tracking messages and times both merge
/// paths over them.
GridPoint RunPoint(uint32_t k, uint64_t dup, bool delta, uint64_t total,
                   uint64_t seed) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 2;
  config.delta_tracking = delta;

  // Universe fits key_bytes; dup sources drawing from total/dup keys give
  // each key ~dup holders.
  const uint64_t universe = std::max<uint64_t>(total / dup, 1);
  TJ_CHECK_LE(universe, 1ULL << 32);

  Rng rng(seed);
  std::vector<Message> msgs;
  std::vector<std::vector<KeyCount>> sources;
  uint64_t wire_entries = 0;
  for (uint32_t src = 0; src < k; ++src) {
    sources.push_back(MakeSource(&rng, total / k, universe));
    const std::vector<KeyCount>& kcs = sources.back();
    wire_entries += kcs.size();
    // num_nodes=1: every key hashes to destination 0, i.e. this tracker.
    std::vector<ByteBuffer> bufs =
        EncodeTrackingMessages(kcs, config, /*with_counts=*/true, 1);
    TJ_CHECK_EQ(bufs.size(), size_t{1});
    msgs.push_back(Message{src, MessageType::kTrackR, std::move(bufs[0])});
  }

  uint64_t merged = 0;
  double merge_s = BestOf([&] {
    std::vector<TrackEntry> out;
    Status s = TryMergeTrackingMessages(msgs, config, true, &out);
    TJ_CHECK(s.ok()) << s.ToString();
    merged = out.size();
  });
  double reference_s = BestOf([&] {
    std::vector<TrackEntry> all;
    std::vector<TrackEntry> entries;
    for (const Message& msg : msgs) {
      Status s = TryDecodeTrackingMessage(msg, config, true, &entries);
      TJ_CHECK(s.ok()) << s.ToString();
      all.insert(all.end(), entries.begin(), entries.end());
    }
    MergeTrackEntries(&all);
    TJ_CHECK_EQ(all.size(), merged);
  });
  // Every source's keys split over kEncodeDestinations trackers.
  uint64_t encoded_bytes = 0;
  double encode_s = BestOf([&] {
    encoded_bytes = 0;
    for (const std::vector<KeyCount>& kcs : sources) {
      std::vector<ByteBuffer> bufs = EncodeTrackingMessages(
          kcs, config, /*with_counts=*/true, kEncodeDestinations);
      for (const ByteBuffer& buf : bufs) encoded_bytes += buf.size();
    }
  });
  TJ_CHECK_GT(encoded_bytes, 0u);

  return GridPoint{k,      dup,
                   delta,  wire_entries,
                   merged, static_cast<double>(wire_entries) / merge_s,
                   static_cast<double>(wire_entries) / reference_s,
                   static_cast<double>(wire_entries) / encode_s};
}

}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  using namespace tj;
  bench::Args args = bench::ParseArgs(argc, argv);
  const uint64_t divisor = args.scale ? args.scale : 4;
  const uint64_t total = (1ULL << 20) / divisor;

  // Plain-format grid over fan-in and duplication, plus one delta-coded
  // point: delta streams decode into the same runs and merge through the
  // same loser tree, so the gate on the plain headline covers their shared
  // path.
  std::vector<bench::GridPoint> grid;
  for (uint32_t k : {2u, 8u, 32u}) {
    for (uint64_t dup : {uint64_t{1}, uint64_t{4}}) {
      grid.push_back(bench::RunPoint(k, dup, false, total, args.seed));
    }
  }
  grid.push_back(bench::RunPoint(8, 4, true, total, args.seed));

  const bench::GridPoint* headline = nullptr;
  const bench::GridPoint* headline_delta = nullptr;
  for (const bench::GridPoint& g : grid) {
    if (g.sources == 8 && g.dup == 4) {
      (g.delta ? headline_delta : headline) = &g;
    }
  }
  TJ_CHECK(headline != nullptr && headline_delta != nullptr);

  std::printf("{\n");
  std::printf("  \"entries_per_point\": %" PRIu64 ",\n", total);
  std::printf("  \"tracker_merge_tps\": %.0f,\n", headline->merge_tps);
  std::printf("  \"tracker_merge_delta_tps\": %.0f,\n",
              headline_delta->merge_tps);
  std::printf("  \"tracker_encode_tps\": %.0f,\n", headline->encode_tps);
  std::printf("  \"tracker_merge_over_reference\": %.3f,\n",
              headline->merge_tps / headline->reference_tps);
  std::printf("  \"merge_grid\": [\n");
  for (size_t i = 0; i < grid.size(); ++i) {
    const bench::GridPoint& g = grid[i];
    std::printf("    {\"sources\": %u, \"dup\": %" PRIu64
                ", \"delta\": %s, \"wire_entries\": %" PRIu64
                ", \"merged_keys\": %" PRIu64
                ", \"merge_tps\": %.0f, \"reference_tps\": %.0f"
                ", \"encode_tps\": %.0f}%s\n",
                g.sources, g.dup, g.delta ? "true" : "false", g.wire_entries,
                g.merged, g.merge_tps, g.reference_tps, g.encode_tps,
                i + 1 < grid.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
