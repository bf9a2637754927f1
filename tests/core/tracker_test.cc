#include "core/tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "encoding/varint.h"

namespace tj {
namespace {

static_assert(sizeof(TrackEntry) == 16);

/// Views of in-memory runs, as TryMergeTrackRuns takes them.
std::vector<std::span<const TrackEntry>> Views(
    const std::vector<std::vector<TrackEntry>>& runs) {
  return {runs.begin(), runs.end()};
}

Message Msg(uint32_t src, ByteBuffer data) {
  return Message{src, MessageType::kTrackR, std::move(data)};
}

/// Reference path: decode every message, concatenate, comparison-sort merge.
std::vector<TrackEntry> ReferenceMerge(const std::vector<Message>& messages,
                                       const JoinConfig& config,
                                       bool with_counts) {
  std::vector<TrackEntry> all;
  for (const Message& msg : messages) {
    std::vector<TrackEntry> entries;
    Status s = TryDecodeTrackingMessage(msg, config, with_counts, &entries);
    EXPECT_TRUE(s.ok()) << s.ToString();
    all.insert(all.end(), entries.begin(), entries.end());
  }
  MergeTrackEntries(&all);
  return all;
}

/// Byte-at-a-time reference of the plain tracking encoder: every field
/// through ByteWriter::PutUint, counts above the field split into
/// saturated chunks with the remainder last.
std::vector<ByteBuffer> ReferenceEncode(const std::vector<KeyCount>& keys,
                                        const JoinConfig& config,
                                        bool with_counts, uint32_t num_nodes) {
  std::vector<ByteBuffer> out(num_nodes);
  const uint64_t max_count = config.count_bytes >= 8
                                 ? ~0ULL
                                 : (1ULL << (8 * config.count_bytes)) - 1;
  for (const KeyCount& kc : keys) {
    ByteWriter writer(&out[HashPartition(kc.key, num_nodes)]);
    if (!with_counts) {
      writer.PutUint(kc.key, config.key_bytes);
      continue;
    }
    uint64_t remaining = kc.count;
    do {
      const uint64_t chunk = std::min(remaining, max_count);
      writer.PutUint(kc.key, config.key_bytes);
      writer.PutUint(chunk, config.count_bytes);
      remaining -= chunk;
    } while (remaining > 0);
  }
  return out;
}

/// One source's sorted aggregated keys drawn from [0, universe).
std::vector<KeyCount> RandomSource(Rng* rng, size_t draws, uint64_t universe,
                                   uint64_t max_count) {
  std::vector<uint64_t> keys(draws);
  for (uint64_t& k : keys) k = rng->Below(universe);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<KeyCount> out;
  for (uint64_t k : keys) out.push_back({k, 1 + rng->Below(max_count)});
  return out;
}

TEST(TrackerTest, EncodeDecodeWithoutCounts) {
  JoinConfig config;
  config.key_bytes = 4;
  std::vector<KeyCount> keys = {{1, 3}, {2, 1}, {900, 7}};
  auto messages = EncodeTrackingMessages(keys, config, /*with_counts=*/false, 4);
  ASSERT_EQ(messages.size(), 4u);
  std::vector<TrackEntry> all;
  for (uint32_t dst = 0; dst < 4; ++dst) {
    if (messages[dst].empty()) continue;
    std::vector<TrackEntry> entries;
    ASSERT_TRUE(TryDecodeTrackingMessage(Msg(9, messages[dst]), config,
                                         /*with_counts=*/false, &entries)
                    .ok());
    for (const auto& e : entries) {
      EXPECT_EQ(HashPartition(e.key, 4), dst);  // Routed by hash.
      EXPECT_EQ(e.node, 9u);
      EXPECT_EQ(e.count, 1u);  // Presence only.
      all.push_back(e);
    }
  }
  EXPECT_EQ(all.size(), 3u);
}

TEST(TrackerTest, EncodeDecodeWithCounts) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 2;
  std::vector<KeyCount> keys = {{10, 1}, {20, 65535}, {30, 12}};
  auto messages = EncodeTrackingMessages(keys, config, true, 2);
  std::vector<TrackEntry> all;
  for (uint32_t dst = 0; dst < 2; ++dst) {
    if (messages[dst].empty()) continue;
    std::vector<TrackEntry> entries;
    ASSERT_TRUE(TryDecodeTrackingMessage(Msg(1, messages[dst]), config,
                                         /*with_counts=*/true, &entries)
                    .ok());
    all.insert(all.end(), entries.begin(), entries.end());
  }
  MergeTrackEntries(&all);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], (TrackEntry{10, 1, 1}));
  EXPECT_EQ(all[1], (TrackEntry{20, 1, 65535}));
  EXPECT_EQ(all[2], (TrackEntry{30, 1, 12}));
}

TEST(TrackerTest, CountSaturationSplitsIntoChunks) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 1;  // Max 255 per chunk.
  std::vector<KeyCount> keys = {{5, 700}};
  auto messages = EncodeTrackingMessages(keys, config, true, 1);
  // 700 = 255 + 255 + 190: three chunks.
  EXPECT_EQ(messages[0].size(), 3u * (4 + 1));
  std::vector<TrackEntry> entries;
  ASSERT_TRUE(TryDecodeTrackingMessage(Msg(2, messages[0]), config,
                                       /*with_counts=*/true, &entries)
                  .ok());
  MergeTrackEntries(&entries);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].count, 700u);
}

TEST(TrackerTest, DeltaTrackingRoundTrip) {
  JoinConfig config;
  config.key_bytes = 4;
  config.delta_tracking = true;
  std::vector<KeyCount> keys;
  for (uint64_t k = 100; k < 200; ++k) keys.push_back({k, k % 7 + 1});
  auto messages = EncodeTrackingMessages(keys, config, true, 3);
  uint64_t plain_bytes = 100 * (4 + 1);
  uint64_t delta_bytes = 0;
  std::vector<TrackEntry> all;
  for (uint32_t dst = 0; dst < 3; ++dst) {
    delta_bytes += messages[dst].size();
    if (messages[dst].empty()) continue;
    std::vector<TrackEntry> entries;
    ASSERT_TRUE(TryDecodeTrackingMessage(Msg(4, messages[dst]), config,
                                         /*with_counts=*/true, &entries)
                    .ok());
    all.insert(all.end(), entries.begin(), entries.end());
  }
  EXPECT_LT(delta_bytes, plain_bytes);  // Dense keys compress.
  MergeTrackEntries(&all);
  ASSERT_EQ(all.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(all[i].key, 100 + i);
    EXPECT_EQ(all[i].count, (100 + i) % 7 + 1);
  }
}

TEST(TrackerTest, MergeSumsDuplicates) {
  std::vector<TrackEntry> entries = {
      {5, 1, 10}, {5, 0, 1}, {5, 1, 20}, {3, 2, 4}};
  MergeTrackEntries(&entries);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (TrackEntry{3, 2, 4}));
  EXPECT_EQ(entries[1], (TrackEntry{5, 0, 1}));
  EXPECT_EQ(entries[2], (TrackEntry{5, 1, 30}));
}

TEST(TrackerTest, PlacementIteratorSkipsUnmatchedKeys) {
  std::vector<TrackEntry> r = {{1, 0, 2}, {3, 1, 1}, {5, 0, 1}};
  std::vector<TrackEntry> s = {{2, 0, 1}, {3, 2, 4}, {3, 3, 1}};
  PlacementIterator it(r, s, /*width_r=*/10, /*width_s=*/20, /*tracker=*/7,
                       /*msg_bytes=*/5);
  ASSERT_TRUE(it.Next());
  EXPECT_EQ(it.key(), 3u);
  const KeyPlacement& p = it.placement();
  ASSERT_EQ(p.r.size(), 1u);
  EXPECT_EQ(p.r[0], (NodeSize{1, 10}));  // 1 tuple x width 10.
  ASSERT_EQ(p.s.size(), 2u);
  EXPECT_EQ(p.s[0], (NodeSize{2, 80}));  // 4 tuples x width 20.
  EXPECT_EQ(p.s[1], (NodeSize{3, 20}));
  EXPECT_EQ(p.tracker, 7u);
  EXPECT_EQ(p.msg_bytes, 5u);
  EXPECT_FALSE(it.Next());
}

TEST(TrackerTest, KeyNodePairCodecs) {
  JoinConfig config;
  config.key_bytes = 4;
  config.node_bytes = 1;
  std::vector<KeyNodePair> pairs = {{100, 3}, {200, 0}, {100, 1}};
  Message msg{0, MessageType::kLocationsToR, EncodeKeyNodePairs(pairs, config)};
  EXPECT_EQ(msg.data.size(), pairs.size() * config.MsgBytes());
  std::vector<KeyNodePair> decoded;
  ASSERT_TRUE(TryDecodeKeyNodePairs(msg, config, &decoded).ok());
  EXPECT_EQ(decoded, pairs);
}

TEST(TrackerTest, GroupedKeyNodePairCodecs) {
  JoinConfig config;
  config.key_bytes = 4;
  config.group_locations = true;
  std::vector<KeyNodePair> pairs;
  for (uint64_t k = 0; k < 50; ++k) pairs.push_back({k, 2});
  Message msg{0, MessageType::kLocationsToR, EncodeKeyNodePairs(pairs, config)};
  EXPECT_LT(msg.data.size(), 50u * 5);  // Node label amortized.
  std::vector<KeyNodePair> decoded;
  ASSERT_TRUE(TryDecodeKeyNodePairs(msg, config, &decoded).ok());
  ASSERT_EQ(decoded.size(), 50u);
  for (const auto& p : decoded) EXPECT_EQ(p.node, 2u);
}

// The pipelined source's tracking chunks, written from each tracker's home
// run, concatenate to the barrier encoder's message for that tracker, cut
// every max(1, chunk_bytes / entry bytes) entries with the last entry's key
// as watermark and EOS on the last chunk. Count bytes of 1 saturate at 255,
// so the 300-700-row keys ship as saturated entries that may straddle a cut.
TEST(TrackerTest, TrackingChunksConcatenateToEncodedMessage) {
  constexpr uint32_t kTrackers = 3;
  Rng rng(5);
  for (uint32_t key_bytes = 1; key_bytes <= 8; ++key_bytes) {
    std::vector<uint64_t> keys;
    for (int i = 0; i < 60; ++i) {
      const uint64_t key = rng.Next() & FieldMask(key_bytes);
      const uint64_t rows = i % 20 == 0 ? 300 + rng.Below(400) : 1 + rng.Below(3);
      keys.insert(keys.end(), rows, key);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<uint64_t> home[kTrackers];
    for (uint64_t key : keys) home[HashPartition(key, kTrackers)].push_back(key);
    std::vector<KeyCount> counts;
    AggregateSortedKeys(keys, &counts);
    for (bool with_counts : {false, true}) {
      JoinConfig config;
      config.key_bytes = key_bytes;
      config.count_bytes = 1;
      const uint32_t entry_bytes = key_bytes + (with_counts ? 1 : 0);
      const std::vector<ByteBuffer> messages =
          EncodeTrackingMessages(counts, config, with_counts, kTrackers);
      for (uint64_t chunk_bytes :
           {uint64_t{1}, uint64_t{entry_bytes - 1}, uint64_t{entry_bytes},
            uint64_t{3 * entry_bytes + 1}, uint64_t{4096}}) {
        const uint64_t per_chunk =
            std::max<uint64_t>(1, chunk_bytes / entry_bytes);
        for (uint32_t t = 0; t < kTrackers; ++t) {
          SCOPED_TRACE("key_bytes=" + std::to_string(key_bytes) +
                       " with_counts=" + std::to_string(with_counts) +
                       " chunk_bytes=" + std::to_string(chunk_bytes) +
                       " tracker=" + std::to_string(t));
          std::vector<TrackEntry> entries;
          ASSERT_TRUE(TryDecodeTrackingMessage(Msg(0, messages[t]), config,
                                               with_counts, &entries)
                          .ok());
          ByteBuffer joined;
          uint64_t chunks = 0;
          bool ended = false;
          const uint64_t written = WriteTrackingChunks(
              home[t], config, with_counts, chunk_bytes,
              [&](ByteBuffer data, bool eos, uint64_t watermark) {
                ASSERT_FALSE(ended);
                const uint64_t first = chunks++ * per_chunk;
                const uint64_t count =
                    std::min(per_chunk, entries.size() - first);
                EXPECT_EQ(data.size(), count * entry_bytes);
                EXPECT_EQ(eos, first + count == entries.size());
                EXPECT_EQ(watermark, entries[first + count - 1].key);
                joined.insert(joined.end(), data.begin(), data.end());
                ended = eos;
              });
          EXPECT_TRUE(ended);
          EXPECT_EQ(chunks, (entries.size() + per_chunk - 1) / per_chunk);
          EXPECT_EQ(joined, messages[t]);
          EXPECT_EQ(written, messages[t].size());
        }
      }
    }
  }
}

// An empty home run is one zero-byte EOS chunk, which the tracker counts.
TEST(TrackerTest, EmptyTrackingRunIsOneEosChunk) {
  JoinConfig config;
  int chunks = 0;
  EXPECT_EQ(WriteTrackingChunks({}, config, /*with_counts=*/true, 4096,
                                [&](ByteBuffer data, bool eos,
                                    uint64_t watermark) {
                                  ++chunks;
                                  EXPECT_TRUE(data.empty());
                                  EXPECT_TRUE(eos);
                                  EXPECT_EQ(watermark, 0u);
                                }),
            0u);
  EXPECT_EQ(chunks, 1);
}

TEST(TrackerMergeTest, MatchesReferenceOnRandomStreams) {
  // Property: the k-way merge is byte-identical to decode + MergeTrackEntries
  // across formats, counts modes, fan-ins, and duplication levels.
  Rng rng(21);
  for (bool delta : {false, true}) {
    for (bool with_counts : {false, true}) {
      for (uint32_t k : {1u, 2u, 5u, 13u}) {
        JoinConfig config;
        config.key_bytes = 4;
        config.count_bytes = 2;
        config.delta_tracking = delta;
        std::vector<Message> msgs;
        for (uint32_t src = 0; src < k; ++src) {
          // Universe 400 with up to 300 draws: keys collide across sources.
          auto kcs = RandomSource(&rng, rng.Below(300), 400, 1000);
          auto bufs = EncodeTrackingMessages(kcs, config, with_counts, 1);
          msgs.push_back(Msg(src, std::move(bufs[0])));
        }
        std::vector<TrackEntry> merged;
        Status s = TryMergeTrackingMessages(msgs, config, with_counts, &merged);
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(merged, ReferenceMerge(msgs, config, with_counts))
            << "delta=" << delta << " with_counts=" << with_counts
            << " k=" << k;
      }
    }
  }
}

TEST(TrackerMergeTest, AggregatesSaturatedCountChunks) {
  // count_bytes=1 saturates at 255, so a count of 700 ships as three
  // adjacent chunks per source; the merge must re-aggregate them and then
  // sum across sources ("we can aggregate at the destination").
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 1;
  std::vector<Message> msgs;
  for (uint32_t src = 0; src < 3; ++src) {
    auto bufs = EncodeTrackingMessages({{5, 700}, {9, 2}}, config, true, 1);
    msgs.push_back(Msg(src, std::move(bufs[0])));
  }
  std::vector<TrackEntry> merged;
  ASSERT_TRUE(TryMergeTrackingMessages(msgs, config, true, &merged).ok());
  ASSERT_EQ(merged.size(), 6u);
  for (uint32_t src = 0; src < 3; ++src) {
    EXPECT_EQ(merged[src], (TrackEntry{5, src, 700}));
    EXPECT_EQ(merged[3 + src], (TrackEntry{9, src, 2}));
  }
  EXPECT_EQ(merged, ReferenceMerge(msgs, config, true));
}

TEST(TrackerMergeTest, EmptyInboxAndEmptyMessages) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 2;
  std::vector<TrackEntry> merged = {{1, 2, 3}};  // Must be replaced.
  ASSERT_TRUE(TryMergeTrackingMessages({}, config, true, &merged).ok());
  EXPECT_TRUE(merged.empty());

  // Zero-length payloads (a source with no keys for this tracker) vanish.
  std::vector<Message> msgs;
  msgs.push_back(Msg(0, ByteBuffer{}));
  auto bufs = EncodeTrackingMessages({{42, 7}}, config, true, 1);
  msgs.push_back(Msg(1, std::move(bufs[0])));
  msgs.push_back(Msg(2, ByteBuffer{}));
  ASSERT_TRUE(TryMergeTrackingMessages(msgs, config, true, &merged).ok());
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], (TrackEntry{42, 1, 7}));
}

TEST(TrackerMergeTest, UnsortedPlainStreamIsCorruption) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 2;
  // Hand-built plain message with descending keys: no sender emits one, so
  // the intake rejects it rather than misorder the merge.
  ByteBuffer data;
  ByteWriter w(&data);
  for (uint64_t key : {30u, 20u, 10u}) {
    w.PutUint(key, config.key_bytes);
    w.PutUint(2, config.count_bytes);
  }
  std::vector<Message> msgs;
  msgs.push_back(Msg(0, std::move(data)));
  TrackingStream stream(0, TrackingEntryReader(config, true));
  EXPECT_EQ(stream.TryPush(msgs[0].data).code(), StatusCode::kCorruption);
  EXPECT_EQ(stream.last_key(), 0u);
  std::vector<TrackEntry> kept;
  ASSERT_TRUE(stream.TryTakeBelow(0, /*all=*/true, &kept).ok());
  EXPECT_TRUE(kept.empty());

  auto bufs = EncodeTrackingMessages({{15, 1}, {25, 1}}, config, true, 1);
  msgs.push_back(Msg(1, std::move(bufs[0])));
  std::vector<TrackEntry> merged;
  EXPECT_EQ(TryMergeTrackingMessages(msgs, config, true, &merged).code(),
            StatusCode::kCorruption);
}

TEST(TrackerMergeTest, DeltaWraparoundIsCorruption) {
  JoinConfig config;
  config.key_bytes = 8;
  config.delta_tracking = true;
  // Two gaps whose prefix sum wraps uint64: decoded keys are 1 then 0, a
  // descending stream the sorted-by-construction assumption must not trust.
  ByteBuffer data;
  EncodeLeb128(2, &data);                      // Entry count.
  EncodeLeb128(1, &data);                      // First key: 1.
  EncodeLeb128(~uint64_t{0}, &data);           // 1 + 2^64-1 wraps to 0.
  std::vector<Message> msgs;
  msgs.push_back(Msg(0, std::move(data)));
  TrackingStream stream(0, TrackingEntryReader(config, false));
  EXPECT_EQ(stream.TryPush(msgs[0].data).code(), StatusCode::kCorruption);

  std::vector<TrackEntry> merged;
  EXPECT_EQ(TryMergeTrackingMessages(msgs, config, false, &merged).code(),
            StatusCode::kCorruption);
}

TEST(TrackerMergeTest, RejectsCorruptStreams) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 2;
  auto bufs = EncodeTrackingMessages({{1, 2}, {3, 4}}, config, true, 1);
  ByteBuffer good = bufs[0];

  // Truncated mid-entry: not a multiple of the entry width.
  ByteBuffer truncated(good.begin(), good.end() - 3);
  std::vector<TrackEntry> merged;
  EXPECT_FALSE(TryMergeTrackingMessages({Msg(0, truncated)}, config, true,
                                        &merged)
                   .ok());

  // Delta stream whose declared count exceeds the payload.
  JoinConfig delta_config = config;
  delta_config.delta_tracking = true;
  ByteBuffer bogus;
  EncodeLeb128(1000, &bogus);
  EXPECT_FALSE(TryMergeTrackingMessages({Msg(0, bogus)}, delta_config, true,
                                        &merged)
                   .ok());
}

TEST(TrackerMergeTest, IntakeDecodesWireOrder) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 2;
  auto bufs = EncodeTrackingMessages({{10, 3}, {20, 5}}, config, true, 1);
  TrackingStream stream(6, TrackingEntryReader(config, true));
  ASSERT_TRUE(stream.TryPush(bufs[0]).ok());
  EXPECT_EQ(stream.last_key(), 20u);
  std::vector<TrackEntry> run;
  ASSERT_TRUE(stream.TryTakeBelow(0, /*all=*/true, &run).ok());
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].key, 10u);
  EXPECT_EQ(run[0].node, 6u);
  EXPECT_EQ(run[0].count, 3u);
  EXPECT_EQ(run[1].key, 20u);
  EXPECT_EQ(run[1].count, 5u);
}

/// A sink that appends each batch's R entries to `merged`, checks that they
/// lie in the batch's key range, and counts the batches in `batches`.
TrackBatchSink CollectR(std::vector<TrackEntry>* merged, int* batches) {
  return [merged, batches](TrackBatch& batch) {
    for (const TrackEntry& e : batch.entries[0]) {
      EXPECT_GE(e.key, batch.lo);
      if (!batch.final) {
        EXPECT_LT(e.key, batch.hi);
      }
    }
    merged->insert(merged->end(), batch.entries[0].begin(),
                   batch.entries[0].end());
    ++*batches;
  };
}

// Batches over checked wire chunks: key 5's four saturated entries
// (count_bytes 1 holds 255) span three two-entry chunks of node 1's
// stream. Cut keys at key 5, one above it and mid-chunk stop each stream's
// reader where the cut says, as the barrier tracker cuts its batches; and
// taking a batch after every chunk, bounded by the streams' last keys, is
// the pipelined tracker's frontier. Either way the batches concatenate to
// the reference decode + MergeTrackEntries, with no entry dropped and no
// key split.
TEST(TrackerMergeTest, ChunkStreamBatchesEqualReferenceMerge) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 1;
  // Rows of each source's tracking stream, non-decreasing keys.
  std::vector<uint64_t> rows[2] = {{3}, {2, 5, 5, 14, 30}};
  rows[0].insert(rows[0].end(), 1000, 5);  // 255 + 255 + 255 + 235.
  rows[0].insert(rows[0].end(), {9, 12, 12, 20});
  const uint32_t srcs[2] = {1, 4};
  std::vector<std::vector<ByteBuffer>> chunks(2);
  std::vector<Message> whole;
  for (int i : {0, 1}) {
    ByteBuffer message;
    WriteTrackingChunks(rows[i], config, /*with_counts=*/true,
                        /*chunk_bytes=*/10,
                        [&](ByteBuffer data, bool, uint64_t) {
                          message.insert(message.end(), data.begin(),
                                         data.end());
                          chunks[i].push_back(std::move(data));
                        });
    whole.push_back(Msg(srcs[i], std::move(message)));
  }
  // Node 1's chunks: [3, 5] [5, 5] [5, 9] [12, 20].
  ASSERT_EQ(chunks[0].size(), 4u);
  const std::vector<TrackEntry> expected = ReferenceMerge(whole, config, true);

  const std::vector<std::vector<uint64_t>> cut_lists = {
      {5, 6, 15}, {5}, {6}, {15}, {6, 15}, {1, 5, 5, 13, 100}, {}};
  for (const std::vector<uint64_t>& cuts : cut_lists) {
    TrackerIntake intake(config, true);
    for (int i : {0, 1}) {
      TrackingStream& stream = intake.AddStream(0, srcs[i]);
      for (const ByteBuffer& chunk : chunks[i]) {
        ASSERT_TRUE(stream.TryPush(chunk).ok());
      }
      stream.End();
    }
    std::vector<TrackEntry> merged;
    int batches = 0;
    ASSERT_TRUE(intake.TryTakeBatches(cuts, CollectR(&merged, &batches)).ok());
    EXPECT_EQ(merged, expected);
  }

  // The frontier: the two streams' chunks arrive interleaved, and every
  // arrival takes what the streams' last keys allow.
  TrackerIntake intake(config, true);
  for (int i : {0, 1}) intake.AddStream(0, srcs[i]);
  std::vector<TrackEntry> merged;
  int batches = 0;
  for (size_t c = 0; c < chunks[0].size(); ++c) {
    for (int i : {0, 1}) {
      if (c >= chunks[i].size()) continue;
      TrackingStream& stream = intake.stream(0, i);
      ASSERT_TRUE(stream.TryPush(chunks[i][c]).ok());
      if (c + 1 == chunks[i].size()) stream.End();
      ASSERT_TRUE(intake.TryTakeBatches({}, CollectR(&merged, &batches)).ok());
    }
  }
  EXPECT_GT(batches, 2);
  EXPECT_EQ(merged, expected);
}

TEST(TrackerMergeTest, RunMergeMatchesReference) {
  // The in-memory run merge (one ascending run per source, saturated
  // counts repeating a key) equals concatenate + MergeTrackEntries.
  Rng rng(33);
  for (uint32_t k : {0u, 1u, 2u, 7u}) {
    std::vector<std::vector<TrackEntry>> runs(k);
    std::vector<TrackEntry> all;
    for (uint32_t src = 0; src < k; ++src) {
      for (const KeyCount& kc : RandomSource(&rng, rng.Below(200), 300, 9)) {
        for (uint64_t chunk = 0; chunk < 1 + kc.key % 3; ++chunk) {
          runs[src].push_back(
              TrackEntry{kc.key, src, static_cast<uint32_t>(kc.count)});
        }
      }
      all.insert(all.end(), runs[src].begin(), runs[src].end());
    }
    runs.emplace_back();  // An empty run (a stream with nothing below).
    MergeTrackEntries(&all);
    std::vector<TrackEntry> merged = {{1, 2, 3}};  // Must be replaced.
    ASSERT_TRUE(TryMergeTrackRuns(Views(runs), /*min_key=*/0, &merged).ok());
    EXPECT_EQ(merged, all) << "k=" << k;
  }
}

/// Sorted distinct keys that fit `key_bytes`, always holding 0 and the
/// width's maximum, with counts that hit the count field's maximum and
/// (below 8 bytes) saturate it.
std::vector<KeyCount> WidthSource(Rng* rng, uint32_t key_bytes,
                                  uint32_t count_bytes, size_t draws) {
  const uint64_t key_max = FieldMask(key_bytes);
  // A tracker holds each count in 32 bits; wider wire fields carry it too.
  const uint64_t count_max =
      std::min<uint64_t>(FieldMask(count_bytes), UINT32_MAX);
  std::vector<uint64_t> keys = {0, key_max};
  for (size_t i = 0; i < draws; ++i) {
    keys.push_back(key_bytes == 8 ? rng->Next() : rng->Below(key_max + 1));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<KeyCount> out;
  for (uint64_t key : keys) {
    uint64_t count = 1 + rng->Below(5);
    switch (rng->Below(4)) {
      case 0:
        count = count_max;
        break;
      case 1:
        // Three saturated chunks plus a remainder.
        if (count_bytes < 4) count = 3 * count_max + 1 + rng->Below(5);
        break;
      default:
        break;
    }
    out.push_back({key, count});
  }
  return out;
}

TEST(TrackerWordCodecTest, WidthGridMatchesByteReference) {
  // Every key width x count width, with and without counts: the word
  // encoder writes the reference's bytes, the word-decoding intake returns
  // the reference decoder's entries, and both merges (messages and runs)
  // equal decode + MergeTrackEntries. Sources arrive out of node order and
  // include one- and two-key messages, shorter than one word.
  Rng rng(77);
  const uint32_t kDestinations = 3;
  const std::vector<uint32_t> kNodes = {5, 2, 7, 0, 3};
  for (uint32_t key_bytes = 1; key_bytes <= 8; ++key_bytes) {
    for (uint32_t count_bytes = 1; count_bytes <= 8; ++count_bytes) {
      for (bool with_counts : {false, true}) {
        if (!with_counts && count_bytes > 1) continue;  // Width unused.
        JoinConfig config;
        config.key_bytes = key_bytes;
        config.count_bytes = count_bytes;
        SCOPED_TRACE("key_bytes=" + std::to_string(key_bytes) +
                     " count_bytes=" + std::to_string(count_bytes) +
                     " with_counts=" + std::to_string(with_counts));
        std::vector<std::vector<Message>> inboxes(kDestinations);
        for (size_t i = 0; i < kNodes.size(); ++i) {
          const size_t draws = i == 0 ? 0 : (i == 1 ? 1 : 60);
          std::vector<KeyCount> kcs =
              WidthSource(&rng, key_bytes, count_bytes, draws);
          std::vector<ByteBuffer> encoded = EncodeTrackingMessages(
              kcs, config, with_counts, kDestinations);
          ASSERT_EQ(encoded, ReferenceEncode(kcs, config, with_counts,
                                             kDestinations));
          for (uint32_t d = 0; d < kDestinations; ++d) {
            inboxes[d].push_back(Msg(kNodes[i], std::move(encoded[d])));
          }
        }
        for (const std::vector<Message>& inbox : inboxes) {
          std::vector<std::vector<TrackEntry>> runs;
          for (const Message& msg : inbox) {
            std::vector<TrackEntry> decoded;
            ASSERT_TRUE(
                TryDecodeTrackingMessage(msg, config, with_counts, &decoded)
                    .ok());
            // The pipelined intake keeps the message as one chunk; a batch
            // below its middle key cuts it mid-chunk, and the rest follows.
            TrackingStream stream(msg.src,
                                  TrackingEntryReader(config, with_counts));
            ASSERT_TRUE(stream.TryPush(msg.data).ok());
            const uint64_t middle =
                decoded.empty() ? 0 : decoded[decoded.size() / 2].key;
            std::vector<TrackEntry> walked;
            ASSERT_TRUE(
                stream.TryTakeBelow(middle, /*all=*/false, &walked).ok());
            for (const TrackEntry& e : walked) EXPECT_LT(e.key, middle);
            ASSERT_TRUE(stream.TryTakeBelow(0, /*all=*/true, &walked).ok());
            EXPECT_EQ(walked, decoded);
            runs.push_back(std::move(decoded));
          }
          const std::vector<TrackEntry> expected =
              ReferenceMerge(inbox, config, with_counts);
          std::vector<TrackEntry> merged;
          ASSERT_TRUE(
              TryMergeTrackingMessages(inbox, config, with_counts, &merged)
                  .ok());
          EXPECT_EQ(merged, expected);
          ASSERT_TRUE(
              TryMergeTrackRuns(Views(runs), /*min_key=*/0, &merged).ok());
          EXPECT_EQ(merged, expected);
        }
      }
    }
  }
}

TEST(TrackerWordCodecTest, KeyNodePairWidthGridMatchesByteReference) {
  // Every key width x node width: the word encoder writes what PutUint
  // writes field by field, and decoding returns the pairs, including
  // messages shorter than one word.
  Rng rng(5);
  for (uint32_t key_bytes = 1; key_bytes <= 8; ++key_bytes) {
    for (uint32_t node_bytes = 1; node_bytes <= 4; ++node_bytes) {
      JoinConfig config;
      config.key_bytes = key_bytes;
      config.node_bytes = node_bytes;
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{41}}) {
        std::vector<KeyNodePair> pairs;
        for (size_t i = 0; i < n; ++i) {
          const uint64_t key = i == 0 ? FieldMask(key_bytes)
                                      : rng.Next() & FieldMask(key_bytes);
          const uint32_t node = static_cast<uint32_t>(
              i == 1 ? FieldMask(node_bytes)
                     : rng.Next() & FieldMask(node_bytes));
          pairs.push_back({key, node});
        }
        ByteBuffer reference;
        ByteWriter writer(&reference);
        for (const KeyNodePair& p : pairs) {
          writer.PutUint(p.key, key_bytes);
          writer.PutUint(p.node, node_bytes);
        }
        ByteBuffer encoded = EncodeKeyNodePairs(pairs, config);
        EXPECT_EQ(encoded, reference)
            << "key_bytes=" << key_bytes << " node_bytes=" << node_bytes;
        std::vector<KeyNodePair> decoded;
        ASSERT_TRUE(TryDecodeKeyNodePairs(encoded, config, &decoded).ok());
        EXPECT_EQ(decoded, pairs);
      }
    }
  }
}

TEST(TrackerWordCodecTest, MaxKeyOrdersByNodeNotSourceOrder) {
  // Key ~0ULL at 8 bytes from sources given out of node order: the merged
  // entries list it per node ascending, after every smaller key.
  JoinConfig config;
  config.key_bytes = 8;
  config.count_bytes = 1;
  std::vector<Message> msgs;
  for (uint32_t node : {4u, 1u, 3u}) {
    auto bufs = EncodeTrackingMessages({{7, 1}, {~0ULL, 300}}, config, true, 1);
    msgs.push_back(Msg(node, std::move(bufs[0])));
  }
  std::vector<TrackEntry> merged;
  ASSERT_TRUE(TryMergeTrackingMessages(msgs, config, true, &merged).ok());
  EXPECT_EQ(merged, (std::vector<TrackEntry>{{7, 1, 1},
                                             {7, 3, 1},
                                             {7, 4, 1},
                                             {~0ULL, 1, 300},
                                             {~0ULL, 3, 300},
                                             {~0ULL, 4, 300}}));
}

TEST(TrackerMergeTest, RunMergeRejectsDescendingRun) {
  std::vector<TrackEntry> merged;
  // A key descent would split that key across frontier batches.
  std::vector<std::vector<TrackEntry>> runs = {{{1, 0, 1}, {4, 0, 1}},
                                               {{2, 1, 1}, {9, 1, 1},
                                                {3, 1, 1}}};
  Status s = TryMergeTrackRuns(Views(runs), 0, &merged);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("key 3"), std::string::npos) << s.ToString();
  // A run is one source stream's entries: a second node in it is
  // Corruption, so a node descent within one key is too.
  runs = {{{5, 2, 1}, {5, 1, 1}}};
  EXPECT_EQ(TryMergeTrackRuns(Views(runs), 0, &merged).code(),
            StatusCode::kCorruption);
  runs = {{{5, 1, 1}, {6, 2, 1}}};
  s = TryMergeTrackRuns(Views(runs), 0, &merged);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("mixes nodes"), std::string::npos)
      << s.ToString();
  // Repeating a (key, node) is a saturated count, not a descent.
  runs = {{{5, 1, 255}, {5, 1, 45}, {6, 1, 1}}};
  ASSERT_TRUE(TryMergeTrackRuns(Views(runs), 5, &merged).ok());
  EXPECT_EQ(merged, (std::vector<TrackEntry>{{5, 1, 300}, {6, 1, 1}}));
}

TEST(TrackerMergeTest, RunMergeRejectsEntryBelowBatchRange) {
  // A stream that descends across two batches: key 4 went out in the batch
  // ending before 6, and key 3 arrives in the next one. Its run ascends, so
  // only the batch's range start exposes it.
  std::vector<TrackEntry> merged;
  std::vector<std::vector<TrackEntry>> runs = {{{6, 0, 1}, {8, 0, 1}},
                                               {{3, 1, 1}, {7, 1, 1}}};
  Status s = TryMergeTrackRuns(Views(runs), /*min_key=*/6, &merged);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("key 3"), std::string::npos) << s.ToString();
  ASSERT_TRUE(TryMergeTrackRuns(Views(runs), /*min_key=*/3, &merged).ok());
  EXPECT_EQ(merged.size(), 4u);
}

/// A plain tracking payload (4-byte keys, 2-byte counts of 1), keys in
/// the given order.
ByteBuffer PlainTracking(std::initializer_list<uint64_t> keys) {
  ByteBuffer data;
  ByteWriter w(&data);
  for (uint64_t key : keys) {
    w.PutUint(key, 4);
    w.PutUint(1, 2);
  }
  return data;
}

TEST(TrackerIntakeTest, MalformedPayloadsAreCorruptionOnBothDrivers) {
  // Each case is the chunks one tracker receives, in order, as (source,
  // payload). The barrier tracker takes every chunk as one inbox message;
  // the pipelined intake checks each chunk on its source's stream, carrying
  // the stream's last key (a chunk from another source than the one before
  // it opens a new stream), takes a batch after each chunk and a final one
  // after the last.
  struct Case {
    const char* name;
    bool delta;
    std::vector<std::pair<uint32_t, ByteBuffer>> chunks;
    uint32_t count_bytes = 2;
  };
  // A count one past what TrackEntry holds, on 8-byte count fields.
  JoinConfig wide;
  wide.key_bytes = 4;
  wide.count_bytes = 8;
  const std::vector<KeyCount> too_many = {{7, uint64_t{UINT32_MAX} + 1}};
  const ByteBuffer big_plain =
      EncodeTrackingMessages(too_many, wide, true, 1)[0];
  wide.delta_tracking = true;
  const ByteBuffer big_delta =
      EncodeTrackingMessages(too_many, wide, true, 1)[0];
  // Two entries of key 7 whose counts sum one past UINT32_MAX.
  ByteBuffer saturated;
  ByteWriter saturated_writer(&saturated);
  for (uint64_t count : {uint64_t{UINT32_MAX}, uint64_t{1}}) {
    saturated_writer.PutUint(7, 4);
    saturated_writer.PutUint(count, 4);
  }
  ByteBuffer partial = PlainTracking({1, 2});
  partial.resize(partial.size() - 3);
  ByteBuffer wrap;
  EncodeLeb128(2, &wrap);            // Entry count.
  EncodeLeb128(1, &wrap);            // First key: 1.
  EncodeLeb128(~uint64_t{0}, &wrap);  // 1 + 2^64-1 wraps to 0.
  const std::vector<Case> cases = {
      {"size not a whole number of entries", false, {{0, partial}}},
      {"keys descend within a chunk", false,
       {{0, PlainTracking({10, 30, 20})}}},
      {"keys descend across chunks", false,
       {{0, PlainTracking({10, 20})}, {0, PlainTracking({15, 40})}}},
      {"delta gaps wrap", true, {{0, wrap}}},
      {"one node's chunks on two streams", false,
       {{0, PlainTracking({1, 2})},
        {1, PlainTracking({3})},
        {0, PlainTracking({4})}}},
      {"plain count past UINT32_MAX", false, {{0, big_plain}}, 8},
      {"delta count past UINT32_MAX", true, {{0, big_delta}}, 8},
      {"saturated counts sum past UINT32_MAX", false, {{0, saturated}}, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    JoinConfig config;
    config.key_bytes = 4;
    config.count_bytes = c.count_bytes;
    config.delta_tracking = c.delta;

    std::vector<Message> inbox;
    for (const auto& [src, payload] : c.chunks) {
      inbox.push_back(Msg(src, payload));
    }
    const TrackBatchSink ignore = [](TrackBatch&) {};
    // The barrier's phase 5 rejects the inbox before phase 6 merges it.
    std::vector<uint64_t> cuts;
    Status barrier =
        TryCheckTrackingMessages(inbox, {}, config, true, &cuts);
    if (barrier.ok()) {
      TrackerIntake intake(config, true);
      for (const Message& msg : inbox) {
        TrackingStream& stream = intake.AddStream(0, msg.src);
        stream.KeepChecked(msg.data);
        stream.End();
      }
      barrier = intake.TryTakeBatches(cuts, ignore);
    }
    EXPECT_EQ(barrier.code(), StatusCode::kCorruption) << barrier.ToString();
    std::vector<TrackEntry> merged;
    EXPECT_EQ(TryMergeTrackingMessages(inbox, config, true, &merged).code(),
              StatusCode::kCorruption);

    TrackerIntake intake(config, true);
    size_t streams = 0;
    Status pipelined;
    for (size_t i = 0; i < c.chunks.size() && pipelined.ok(); ++i) {
      const auto& [src, payload] = c.chunks[i];
      if (i == 0 || c.chunks[i - 1].first != src) {
        intake.AddStream(0, src);
        ++streams;
      }
      pipelined = intake.stream(0, streams - 1).TryPush(payload);
      if (pipelined.ok()) pipelined = intake.TryTakeBatches({}, ignore);
    }
    if (pipelined.ok()) {
      for (size_t i = 0; i < streams; ++i) intake.stream(0, i).End();
      pipelined = intake.TryTakeBatches({}, ignore);
    }
    EXPECT_EQ(pipelined.code(), StatusCode::kCorruption)
        << pipelined.ToString();

    // The reference decoder rejects each chunk's own faults.
    if (c.count_bytes == 8) {
      std::vector<TrackEntry> decoded;
      EXPECT_EQ(TryDecodeTrackingMessage(inbox[0], config, true, &decoded)
                    .code(),
                StatusCode::kCorruption);
    }
  }
}

TEST(TrackerMergeTest, RunMergeRejectsCountSumPastUint32) {
  // Saturated chunks of one (key, node) sum to its count, which must still
  // fit TrackEntry::count; one past it is Corruption, not a wrapped count.
  std::vector<TrackEntry> merged;
  std::vector<std::vector<TrackEntry>> runs = {
      {{5, 1, UINT32_MAX - 1}, {5, 1, 1}, {6, 1, 1}}, {{5, 2, UINT32_MAX}}};
  ASSERT_TRUE(TryMergeTrackRuns(Views(runs), 0, &merged).ok());
  EXPECT_EQ(merged, (std::vector<TrackEntry>{
                        {5, 1, UINT32_MAX}, {5, 2, UINT32_MAX}, {6, 1, 1}}));
  runs = {{{5, 1, UINT32_MAX}, {5, 1, 1}}};
  Status s = TryMergeTrackRuns(Views(runs), 0, &merged);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_TRUE(merged.empty());
}

// The barrier's sorted-run encoder is the KeyCount encoder over the keys
// it aggregates, byte for byte: plain and delta, with and without counts,
// on one and on eight destinations. Count bytes of 1 saturate at 255, so
// the key held 600 times ships as three entries.
TEST(TrackerTest, SortedRunEncoderEqualsAggregateThenEncode) {
  Rng rng(17);
  TupleBlock mixed(0);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    keys.insert(keys.end(), 1 + rng.Below(4), rng.Below(5000));
  }
  keys.insert(keys.end(), 600, 777);
  std::sort(keys.begin(), keys.end());
  for (uint64_t key : keys) mixed.Append(key, nullptr);
  TupleBlock repeated(0);
  for (int i = 0; i < 600; ++i) repeated.Append(42, nullptr);
  TupleBlock empty(0);
  for (const TupleBlock* block : {&mixed, &repeated, &empty}) {
    for (bool delta : {false, true}) {
      for (bool with_counts : {false, true}) {
        for (uint32_t dests : {1u, 8u}) {
          SCOPED_TRACE("rows=" + std::to_string(block->size()) +
                       " delta=" + std::to_string(delta) +
                       " with_counts=" + std::to_string(with_counts) +
                       " dests=" + std::to_string(dests));
          JoinConfig config;
          config.key_bytes = 2;
          config.count_bytes = 1;
          config.delta_tracking = delta;
          EXPECT_EQ(EncodeSortedTrackingMessages(block->keys(), config,
                                                 with_counts, dests),
                    EncodeTrackingMessages(AggregateSortedKeys(*block), config,
                                           with_counts, dests));
        }
      }
    }
  }
}

/// Merges `r` and `s` as the barrier tracker does, with batches of about
/// `batch_entries` entries: the phase-5 check picks the cut keys, and an
/// intake over the checked messages takes the batches. Returns each
/// batch's entries.
std::vector<std::pair<std::vector<TrackEntry>, std::vector<TrackEntry>>>
Batches(const std::vector<Message>& r, const std::vector<Message>& s,
        const JoinConfig& config, size_t batch_entries) {
  std::vector<std::pair<std::vector<TrackEntry>, std::vector<TrackEntry>>> out;
  std::vector<uint64_t> cuts;
  EXPECT_TRUE(
      TryCheckTrackingMessages(r, s, config, true, &cuts, batch_entries).ok());
  TrackerIntake intake(config, true);
  for (int table : {0, 1}) {
    for (const Message& msg : table == 0 ? r : s) {
      TrackingStream& stream = intake.AddStream(table, msg.src);
      stream.KeepChecked(msg.data);
      stream.End();
    }
  }
  const Status status = intake.TryTakeBatches(cuts, [&](TrackBatch& batch) {
    out.emplace_back(batch.entries[0], batch.entries[1]);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

// A batch takes every key below a cut key, so a key whose saturated
// entries straddle a tiny batch's cut, or are the cut, still merges whole,
// in one batch: the batches concatenate to the one-batch merge on both
// tables, and no key spans two batches.
TEST(TrackerMergeTest, SaturatedEntriesStraddlingABatchBoundMergeAsOne) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 1;
  for (bool delta : {false, true}) {
    config.delta_tracking = delta;
    std::vector<Message> r, s;
    for (uint32_t src = 0; src < 3; ++src) {
      // Key 20 carries 700 rows from every source: three entries each
      // in the plain format, one in the delta format.
      r.push_back(Msg(src, EncodeTrackingMessages(
                               {{5, 1}, {20, 700}, {21 + src, 2}}, config,
                               true, 1)[0]));
      s.push_back(Msg(src, EncodeTrackingMessages(
                               {{20, 300 + src}, {40, 1}}, config, true,
                               1)[0]));
    }
    const auto whole = Batches(r, s, config, 1 << 20);
    ASSERT_EQ(whole.size(), 1u);
    EXPECT_EQ(whole[0].first, ReferenceMerge(r, config, true));
    EXPECT_EQ(whole[0].second, ReferenceMerge(s, config, true));
    for (size_t batch_entries : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE("delta=" + std::to_string(delta) +
                   " batch_entries=" + std::to_string(batch_entries));
      const auto batches = Batches(r, s, config, batch_entries);
      EXPECT_GT(batches.size(), 1u);
      std::vector<TrackEntry> joined[2];
      uint64_t next = 0;  // Keys below it went out in earlier batches.
      for (const auto& [batch_r, batch_s] : batches) {
        uint64_t last = next;
        for (const std::vector<TrackEntry>* batch : {&batch_r, &batch_s}) {
          for (const TrackEntry& e : *batch) {
            EXPECT_GE(e.key, next) << "key " << e.key << " split";
            last = std::max(last, e.key + 1);
          }
        }
        next = last;
        joined[0].insert(joined[0].end(), batch_r.begin(), batch_r.end());
        joined[1].insert(joined[1].end(), batch_s.begin(), batch_s.end());
      }
      EXPECT_EQ(joined[0], whole[0].first);
      EXPECT_EQ(joined[1], whole[0].second);
    }
  }
}

/// A delta-coded tracking payload with counts, entries in the given order:
/// an LEB128 entry count, the keys' LEB128 gaps from 0, then the counts.
ByteBuffer DeltaTracking(std::initializer_list<KeyCount> entries) {
  ByteBuffer data;
  EncodeLeb128(entries.size(), &data);
  uint64_t last = 0;
  for (const KeyCount& e : entries) {
    EncodeLeb128(e.key - last, &data);
    last = e.key;
  }
  for (const KeyCount& e : entries) EncodeLeb128(e.count, &data);
  return data;
}

// Delta-coded streams cut mid-message. Key 5 repeats (gap 0) as saturated
// entries, within one message and across two chunks of one stream, and
// cut keys at 5, at 6 and between other keys stop each stream's reader
// inside a message, which resumes at its next gap. Every cut, and the
// phase-5 check's own cuts at tiny batches, gives batches that
// concatenate to the reference decode + MergeTrackEntries, with all of key
// 5's entries in one batch.
TEST(TrackerMergeTest, DeltaStreamCutMidMessageEqualsReferenceMerge) {
  JoinConfig config;
  config.key_bytes = 4;
  config.count_bytes = 1;
  config.delta_tracking = true;
  const std::vector<Message> inbox = {
      Msg(0, DeltaTracking({{1, 1}, {5, 255}, {5, 255}, {5, 190}, {8, 2},
                            {30, 1}})),
      Msg(3, DeltaTracking({{2, 1}, {5, 7}, {9, 1}, {31, 4}})),
      Msg(2, DeltaTracking({{5, 255}, {5, 1}, {6, 3}}))};
  const std::vector<TrackEntry> expected = ReferenceMerge(inbox, config, true);
  ASSERT_EQ(expected[2], (TrackEntry{5, 0, 700}));

  auto check_batches = [&](const std::vector<uint64_t>& cuts) {
    TrackerIntake intake(config, true);
    for (const Message& msg : inbox) {
      TrackingStream& stream = intake.AddStream(0, msg.src);
      stream.KeepChecked(msg.data);
      stream.End();
    }
    std::vector<TrackEntry> merged;
    int batches = 0;
    int batches_with_key_5 = 0;
    const TrackBatchSink collect = CollectR(&merged, &batches);
    EXPECT_TRUE(intake
                    .TryTakeBatches(cuts,
                                    [&](TrackBatch& batch) {
                                      for (const TrackEntry& e :
                                           batch.entries[0]) {
                                        if (e.key != 5) continue;
                                        ++batches_with_key_5;
                                        break;
                                      }
                                      collect(batch);
                                    })
                    .ok());
    EXPECT_EQ(merged, expected);
    EXPECT_EQ(batches_with_key_5, 1);
    return batches;
  };
  for (const std::vector<uint64_t>& cuts : std::vector<std::vector<uint64_t>>{
           {5}, {6}, {5, 6}, {2, 5, 9}, {3, 7, 31}, {}}) {
    SCOPED_TRACE("cuts=" + std::to_string(cuts.size()));
    check_batches(cuts);
  }
  std::vector<uint64_t> cuts;
  ASSERT_TRUE(TryCheckTrackingMessages(inbox, {}, config, true, &cuts,
                                       /*batch_entries=*/3)
                  .ok());
  EXPECT_FALSE(cuts.empty());
  EXPECT_GT(check_batches(cuts), 1);

  // One stream of two delta chunks, key 5 repeating across them, taken
  // below 5, below 6 and then whole.
  TrackingStream stream(7, TrackingEntryReader(config, true));
  ASSERT_TRUE(stream.TryPush(DeltaTracking({{1, 1}, {5, 255}})).ok());
  ASSERT_TRUE(stream.TryPush(DeltaTracking({{5, 45}, {9, 2}})).ok());
  EXPECT_EQ(stream.last_key(), 9u);
  std::vector<TrackEntry> run;
  ASSERT_TRUE(stream.TryTakeBelow(5, /*all=*/false, &run).ok());
  EXPECT_EQ(run, (std::vector<TrackEntry>{{1, 7, 1}}));
  ASSERT_TRUE(stream.TryTakeBelow(6, /*all=*/false, &run).ok());
  EXPECT_EQ(run, (std::vector<TrackEntry>{{1, 7, 1}, {5, 7, 255},
                                          {5, 7, 45}}));
  ASSERT_TRUE(stream.TryTakeBelow(0, /*all=*/true, &run).ok());
  EXPECT_EQ(run.back(), (TrackEntry{9, 7, 2}));
  EXPECT_EQ(run.size(), 4u);
}

}  // namespace
}  // namespace tj
