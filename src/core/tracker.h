// Tracking-phase message codecs and the tracker-side key table.
//
// Every node projects its table to distinct join keys (plus local counts in
// the 3-/4-phase versions) and ships them to the tracker responsible for
// each key: processT at hash(key) mod N. The tracker merges the incoming
// streams into per-key placements that the scheduler consumes.
//
// The barrier driver encodes each table's messages in one walk over its
// sorted block (EncodeSortedTrackingMessages); the pipelined driver writes
// its tracking chunks from its home runs (WriteTrackingChunks). Both
// trackers take what arrives through one intake (TrackerIntake): one
// TrackingStream per source and table holds the checked wire bytes, and
// one batch loop (TrackerIntake::TryTakeBatches) decodes only the entries
// below each batch bound and merges them (TryMergeTrackRuns) straight into
// the scheduler. The pipelined tracker checks each chunk as it arrives and
// runs the loop after it, bounded by the streams' last keys; the barrier
// tracker checks each inbox in phase 5 (TryCheckTrackingMessages), which
// also picks the batch cut keys, and runs the loop once in phase 6. Neither
// per-key projections, a tracker's whole merged entry table nor a stream's
// decoded entries outside one batch ever exist.
#ifndef TJ_CORE_TRACKER_H_
#define TJ_CORE_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/byte_buffer.h"
#include "core/join_types.h"
#include "core/schedule.h"
#include "encoding/node_group.h"
#include "encoding/varint.h"
#include "exec/key_aggregate.h"
#include "net/message.h"

namespace tj {

/// One tracker-side fact: node `node` holds `count` tuples of `key`. A
/// node's count for one key is bounded by its rows, which are indexed by
/// uint32_t, so the entry packs into 16 bytes; every decoder and the merge
/// return Status::Corruption for a count past UINT32_MAX.
struct TrackEntry {
  uint64_t key;
  uint32_t node;
  uint32_t count;

  bool operator==(const TrackEntry&) const = default;
};

/// Serializes one node's sorted table into per-destination tracking
/// messages (destination = hash(key) mod num_nodes) in two walks over the
/// runs of equal keys in `keys`, non-decreasing: the first sizes every
/// destination exactly, the second writes each run as its key's entry,
/// with the run's length as count. Plain entries store each field as one
/// 8-byte word into buffers with 8 bytes of slack, trimmed at the end.
/// With `with_counts` false (2-phase), only keys travel; counts are implied
/// 1 ("present"). Counts wider than cfg.count_bytes are split into
/// saturated entries the tracker re-aggregates ("we can aggregate at the
/// destination"). With cfg.delta_tracking, each destination's keys are
/// delta coded (an LEB128 entry count, then LEB128 gaps from 0) and counts
/// follow as LEB128 in key order; a destination without keys gets an empty
/// message.
std::vector<ByteBuffer> EncodeSortedTrackingMessages(
    std::span<const uint64_t> keys, const JoinConfig& config, bool with_counts,
    uint32_t num_nodes);

/// The same encoder over keys already aggregated (AggregateSortedKeys), one
/// entry per KeyCount in the given order: byte-identical to
/// EncodeSortedTrackingMessages over the keys they aggregate.
std::vector<ByteBuffer> EncodeTrackingMessages(
    const std::vector<KeyCount>& keys, const JoinConfig& config,
    bool with_counts, uint32_t num_nodes);

/// Receives one chunk of a pipelined wire stream: `eos` marks the stream's
/// last chunk, and `watermark` is the chunk's last key, which promises that
/// no later chunk carries a key below it (a saturated count's later entries
/// may repeat it), so the tracker's frontier can advance.
using TrackingChunkSink =
    std::function<void(ByteBuffer data, bool eos, uint64_t watermark)>;

/// The pipelined source's tracking stream to one tracker, written straight
/// from `keys`, the non-decreasing keys of its home run for that tracker:
/// each distinct key with its number of rows as count, saturated like
/// EncodeSortedTrackingMessages, so the chunks concatenate to that
/// function's message for the tracker. Chunks are cut at entry boundaries,
/// max(1, chunk_bytes / entry bytes) entries each, and an empty run is one
/// zero-byte EOS chunk with watermark 0. Requires the plain wire format.
/// Returns the bytes written.
uint64_t WriteTrackingChunks(std::span<const uint64_t> keys,
                             const JoinConfig& config, bool with_counts,
                             uint64_t chunk_bytes,
                             const TrackingChunkSink& emit);

/// Reference decoder: parses one tracking message back into (key, src,
/// count) entries with a byte reader, checking nothing about key order.
/// Duplicate (key, node) chunks are NOT merged here; MergeTrackEntries does.
/// Malformed payloads (truncated varints, sizes not a multiple of the entry
/// width, trailing bytes, a count past UINT32_MAX) return
/// Status::Corruption.
Status TryDecodeTrackingMessage(const Message& message,
                                const JoinConfig& config, bool with_counts,
                                std::vector<TrackEntry>* out);

/// Sorts entries by (key, node) and merges duplicate (key, node) counts;
/// a merged count past UINT32_MAX is a checked failure.
/// Reference implementation: the streaming path (TryMergeTrackingMessages)
/// must produce byte-identical output; property tests cross-check the two.
void MergeTrackEntries(std::vector<TrackEntry>* entries);

/// Field layout of a plain fixed-width wire entry: a `key_bytes`
/// little-endian key, then a `value_bytes` little-endian value — the count
/// of a plain (not delta-coded) tracking entry, or the node of a <key, node>
/// pair. Decode reads each field with one 8-byte load and a mask wherever 8
/// bytes remain past the field's start, and byte by byte in the message's
/// last few bytes. With value_bytes 0 (2-phase tracking: keys only) every
/// value is 1.
class PlainEntryLayout {
 public:
  PlainEntryLayout(uint32_t key_bytes, uint32_t value_bytes);
  /// The tracking entry of `config`, with or without counts.
  PlainEntryLayout(const JoinConfig& config, bool with_counts)
      : PlainEntryLayout(config.key_bytes,
                         with_counts ? config.count_bytes : 0) {}

  uint32_t entry_bytes() const { return entry_bytes_; }

  /// Decodes the entry at data[pos, pos + entry_bytes()) of a `size`-byte
  /// message.
  void Decode(const uint8_t* data, size_t pos, size_t size, uint64_t* key,
              uint64_t* value) const {
    const uint8_t* p = data + pos;
    if (pos + key_bytes_ + 8 <= size) {
      *key = LoadLe64(p) & key_mask_;
      *value = (LoadLe64(p + key_bytes_) & value_mask_) | value_floor_;
    } else {
      *key = ReadTail(p, key_bytes_);
      *value = ReadTail(p + key_bytes_, value_bytes_) | value_floor_;
    }
  }

 private:
  static uint64_t ReadTail(const uint8_t* p, uint32_t bytes) {
    uint64_t v = 0;
    for (uint32_t i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    return v;
  }

  uint32_t key_bytes_ = 0;
  uint32_t value_bytes_ = 0;
  uint32_t entry_bytes_ = 0;
  uint64_t key_mask_ = 0;
  uint64_t value_mask_ = 0;   ///< 0 without a value field.
  uint64_t value_floor_ = 1;  ///< 1 without a value field (the implied count).
};

/// Reads one tracking message or pipelined chunk entry by entry, plain or
/// delta-coded per the config, in place. Open checks the framing, so the
/// reads need no bounds checks. Small (40 bytes), since every tracking
/// stream holds one.
class TrackingEntryReader {
 public:
  TrackingEntryReader(const JoinConfig& config, bool with_counts);

  /// Starts reading `data`: a plain payload must be whole entries; a delta
  /// payload must hold exactly the varints of its declared entries' gaps
  /// and (with counts) counts, each complete. Otherwise Corruption.
  Status Open(std::span<const uint8_t> data);

  /// Entries not yet read.
  uint64_t left() const { return left_; }

  /// Reads the entries up to the first with key at or above `bound` (to
  /// the end with `all`), calling emit(key, count) for each, and stops
  /// before it. A count may exceed TrackEntry::count.
  template <typename Emit>
  void ReadBelow(uint64_t bound, bool all, Emit emit) {
    if (!delta_) {
      const PlainEntryLayout layout(key_bytes_, count_bytes_);
      for (; left_ > 0; --left_, next_ += layout.entry_bytes()) {
        uint64_t key = 0;
        uint64_t count = 0;
        layout.Decode(next_, 0, end_ - next_, &key, &count);
        if (!all && key >= bound) return;
        emit(key, count);
      }
      return;
    }
    for (; left_ > 0; --left_) {
      const uint8_t* gap = next_;
      const uint64_t key = key_ + LoadLeb128(&gap);
      if (!all && key >= bound) return;
      next_ = gap;
      key_ = key;
      emit(key, with_counts_ ? LoadLeb128(&end_) : uint64_t{1});
    }
  }

 private:
  bool delta_;
  bool with_counts_;
  uint8_t key_bytes_;
  uint8_t count_bytes_;  ///< Of a plain entry: 0 without counts.
  const uint8_t* next_ = nullptr;  ///< Plain: the next entry; delta: the
                                   ///< next key's gap.
  const uint8_t* end_ = nullptr;   ///< Plain: the payload's end; delta:
                                   ///< the next count.
  uint64_t key_ = 0;               ///< Delta: the last key read.
  uint64_t left_ = 0;
};

/// Entries per barrier merge batch, over all of a tracker's messages:
/// 256 KiB of TrackEntry, so a batch's runs and merged output stay in
/// cache.
inline constexpr size_t kTrackBatchEntries = size_t{1} << 14;

/// The barrier tracker's phase-5 check ("merge received keys") of its R
/// and S inboxes, in place, without decoding them into entries. A message
/// must be whole entries (plain) or exactly its declared entries' complete
/// varints (delta), its keys must not descend (a delta gap that wraps
/// uint64_t decodes as a descent), and every count, and the saturated
/// counts of a key summed, must fit TrackEntry::count; an inbox holds at
/// most one message per source. The first fault returns
/// Status::Corruption. The same walk picks the phase-6 batch bounds for
/// TrackerIntake::TryTakeBatches into `cuts`: with m the messages in both
/// inboxes, it records every ceil(batch_entries / m)-th key of each
/// message, sorts them and keeps every m-th, so a batch holds about
/// batch_entries entries.
Status TryCheckTrackingMessages(std::span<const Message> r_messages,
                                std::span<const Message> s_messages,
                                const JoinConfig& config, bool with_counts,
                                std::vector<uint64_t>* cuts,
                                size_t batch_entries = kTrackBatchEntries);

/// One tracking stream (one source, one table) at its tracker: the checked
/// wire bytes of its chunks, plain or delta, kept until batches take their
/// entries. The pipelined tracker pushes each chunk as it arrives; the
/// barrier tracker keeps each message its phase-5 check accepted as its
/// source's one chunk and ends the stream.
class TrackingStream {
 public:
  /// A stream from node `src` read by `reader`, which need not be open.
  TrackingStream(uint32_t src, const TrackingEntryReader& reader)
      : src_(src), reader_(reader) {}
  // Moves only: the open reader points into the kept chunk, whose buffer a
  // move keeps and a copy would not.
  TrackingStream(TrackingStream&&) = default;
  TrackingStream& operator=(TrackingStream&&) = default;

  /// Checks `data`, the stream's next chunk, and keeps it. Its keys must
  /// not descend, within it or from last_key(); every count, and a key's
  /// saturated counts summed within the chunk, must fit TrackEntry::count;
  /// a plain chunk must be whole entries and a delta one exactly its
  /// declared entries' complete varints. A fault returns
  /// Status::Corruption and keeps nothing.
  Status TryPush(ByteBuffer data);

  /// Keeps `data`, which TryCheckTrackingMessages accepted, unchecked;
  /// last_key() does not follow it.
  void KeepChecked(ByteBuffer data);

  /// No chunk follows: batches may take every kept entry.
  void End() { ended_ = true; }
  bool ended() const { return ended_; }

  /// The last key pushed, 0 before any: no later chunk carries a key
  /// below it (a saturated count's later entries may repeat it).
  uint64_t last_key() const { return last_key_; }

  /// Appends the kept entries with key below `bound` (all of them with
  /// `all`) to `run` as the source's, in stream order, and drops each
  /// chunk once it is taken whole. A key's saturated entries all lie on
  /// one side of any bound, so none is split across batches.
  Status TryTakeBelow(uint64_t bound, bool all, std::vector<TrackEntry>* run);

 private:
  uint32_t src_;
  bool ended_ = false;
  bool open_ = false;  ///< reader_ is reading reading_.
  uint64_t last_key_ = 0;
  /// The kept chunks in stream order: the first in reading_ (empty when
  /// none is kept), the rest in queued_ from head_ on. A stream of one
  /// chunk, a barrier message, allocates no queue.
  ByteBuffer reading_;
  std::vector<ByteBuffer> queued_;
  size_t head_ = 0;
  TrackingEntryReader reader_;
};

/// One key-range batch of a tracker's merged R and S entries.
struct TrackBatch {
  uint64_t lo = 0;     ///< Its keys are at or above lo,
  uint64_t hi = 0;     ///< and below hi, unless it is
  bool final = false;  ///< the final batch, which takes every key left.
  /// R and S entries in the MergeTrackEntries order, duplicate (key, node)
  /// counts summed. A sink may move them out.
  std::vector<TrackEntry> entries[2];
};
using TrackBatchSink = std::function<void(TrackBatch& batch)>;

/// A tracker's intake: its R and S tracking streams and its merge
/// frontier, below which every key went out in a batch.
class TrackerIntake {
 public:
  TrackerIntake(const JoinConfig& config, bool with_counts)
      : reader_(config, with_counts) {}

  /// Makes room for `streams` streams of `table`.
  void Reserve(int table, size_t streams) {
    streams_[table].reserve(streams);
  }
  /// Adds the next stream of `table` (0 = R, 1 = S), from node `src`.
  TrackingStream& AddStream(int table, uint32_t src) {
    return streams_[table].emplace_back(src, reader_);
  }
  /// The i-th stream added to `table`.
  TrackingStream& stream(int table, size_t i) { return streams_[table][i]; }

  /// Takes batches until none can advance the frontier. A batch's bound is
  /// the smallest of the open streams' last keys and of the first cut key
  /// above the frontier; once every stream has ended and no cut is left,
  /// the final batch takes everything. Each batch takes every entry below
  /// its bound from every stream and merges each table with
  /// TryMergeTrackRuns, whose Status this returns, and goes to `sink` if it
  /// holds entries or is the final one. `cuts` ascend. Memory beyond the
  /// streams is one batch's decoded and merged entries.
  Status TryTakeBatches(std::span<const uint64_t> cuts,
                        const TrackBatchSink& sink);

  /// True once the final batch is taken: every stream has ended.
  bool done() const { return final_taken_; }

 private:
  TrackingEntryReader reader_;  ///< Unopened: every stream's format.
  std::vector<TrackingStream> streams_[2];
  uint64_t frontier_ = 0;
  bool final_taken_ = false;
};

/// Merges all tracking messages of one inbox into one merged (key, node)
/// entry vector: TryCheckTrackingMessages, then a TrackerIntake over
/// copies of the messages with its batches appended to `out`. Output is
/// byte-identical to decoding every message and running
/// MergeTrackEntries. A malformed message, or one whose keys descend,
/// returns Status::Corruption.
Status TryMergeTrackingMessages(const std::vector<Message>& messages,
                                const JoinConfig& config, bool with_counts,
                                std::vector<TrackEntry>* out);

/// Merges one key-range batch of tracker entries into the MergeTrackEntries
/// order with duplicate (key, node) counts summed: a loser-tree k-way merge
/// over the runs, ordered stably by node so the tree's index tie-break is
/// the node order. O(n log k), no comparison sort. Each run holds one
/// source stream's entries in the batch: one node, keys ascending; a
/// saturated count may repeat a key. `min_key` is where the batch's key
/// range starts. A run that descends or mixes nodes, two runs of one node,
/// or an entry below `min_key` (it arrived after its range was merged)
/// returns Status::Corruption: each would split a key's entries across
/// batches or leave their order unchecked. So does a (key, node) whose
/// summed count passes UINT32_MAX. The runs are borrowed views;
/// `out` is reserved for every entry, as exact when no key repeats.
Status TryMergeTrackRuns(std::span<const std::span<const TrackEntry>> runs,
                         uint64_t min_key, std::vector<TrackEntry>* out);

/// Iterates the distinct keys that have at least one R and one S entry,
/// building the per-key placement for the scheduler. Both entry vectors
/// must be merged (sorted by key, node). `width_r`/`width_s` are serialized
/// tuple widths in bytes (key + payload); byte totals are count × width.
/// Keys missing from either side are skipped — track join's built-in
/// perfect semi-join filtering.
class PlacementIterator {
 public:
  PlacementIterator(const std::vector<TrackEntry>& r_entries,
                    const std::vector<TrackEntry>& s_entries,
                    uint32_t width_r, uint32_t width_s, uint32_t tracker,
                    uint64_t msg_bytes);

  /// Advances to the next matched key. Returns false when exhausted.
  bool Next();

  uint64_t key() const { return key_; }
  const KeyPlacement& placement() const { return placement_; }

  /// Total matching row counts of the current key, summed across nodes
  /// from the tracked per-node counts (the data heavy-hitter detection
  /// thresholds over — no extra wire traffic needed).
  uint64_t r_row_count() const { return r_rows_; }
  uint64_t s_row_count() const { return s_rows_; }

  /// True when r_row_count * s_row_count >= threshold, with the product
  /// saturating instead of wrapping on extreme skew.
  bool OutputProductAtLeast(uint64_t threshold) const;

 private:
  const std::vector<TrackEntry>& r_entries_;
  const std::vector<TrackEntry>& s_entries_;
  uint32_t width_r_;
  uint32_t width_s_;
  size_t ri_ = 0;
  size_t si_ = 0;
  uint64_t key_ = 0;
  uint64_t r_rows_ = 0;
  uint64_t s_rows_ = 0;
  KeyPlacement placement_;
};

/// Serializes / parses <key, node> pair messages (location lists and
/// migration instructions). With cfg.group_locations the node-grouped
/// encoding of Section 2.4 is used. Malformed payloads return
/// Status::Corruption.
ByteBuffer EncodeKeyNodePairs(std::span<const KeyNodePair> pairs,
                              const JoinConfig& config);
/// Decodes one message or pipelined chunk payload.
Status TryDecodeKeyNodePairs(const ByteBuffer& data, const JoinConfig& config,
                             std::vector<KeyNodePair>* out);
inline Status TryDecodeKeyNodePairs(const Message& message,
                                    const JoinConfig& config,
                                    std::vector<KeyNodePair>* out) {
  return TryDecodeKeyNodePairs(message.data, config, out);
}

}  // namespace tj

#endif  // TJ_CORE_TRACKER_H_
