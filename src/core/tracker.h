// Tracking-phase message codecs and the tracker-side key table.
//
// Every node projects its table to distinct join keys (plus local counts in
// the 3-/4-phase versions) and ships them to the tracker responsible for
// each key: processT at hash(key) mod N. The tracker merges the incoming
// streams into per-key placements that the scheduler consumes.
//
// The barrier driver encodes each table's messages in one walk over its
// sorted block (EncodeSortedTrackingMessages), checks each received inbox
// in place (TryCheckTrackingMessages) and merges the checked messages in
// key-range batches straight into the scheduler (TryMergeTrackBatches), so
// neither per-key projections nor a tracker's whole merged entry table
// ever exist. The pipelined driver writes its tracking chunks from its home
// runs (WriteTrackingChunks), checks each arriving chunk in place and keeps
// it as wire bytes in its stream (TrackingChunkStream), decodes only the
// entries a frontier batch takes, and merges them (TryMergeTrackRuns), the
// same merge the barrier batches use. Neither driver holds a stream's
// decoded entries outside one batch.
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

/// The barrier tracker's intake (phase 5, "merge received keys"): checks
/// one inbox of tracking messages in place, as TryMergeTrackBatches reads
/// them, without decoding them into entries. A message must be whole
/// entries (plain) or exactly its declared entries' complete varints
/// (delta), its keys must not descend (a delta gap that wraps uint64_t
/// decodes as a descent), and every count, and the saturated counts of a
/// key summed, must fit TrackEntry::count; an inbox holds at most one
/// message per source. The first fault returns Status::Corruption.
Status TryCheckTrackingMessages(std::span<const Message> messages,
                                const JoinConfig& config, bool with_counts);

/// One pipelined tracking stream (one source, one table) at its tracker,
/// held as the wire bytes of its chunks until frontier batches take them.
/// TryPush checks a chunk in place, as TryCheckTrackingMessages checks a
/// message, continuing from the stream's last key, and keeps it.
/// TryTakeBelow decodes only the entries a batch takes.
class TrackingChunkStream {
 public:
  /// Checks `data`, the stream's next chunk from node `src`, and keeps it.
  /// Its keys must not descend, within it or from last_key(); every count,
  /// and a key's saturated counts summed within the chunk, must fit
  /// TrackEntry::count; a plain chunk must be whole entries and a delta one
  /// exactly its declared entries' complete varints. A fault returns
  /// Status::Corruption and keeps nothing.
  Status TryPush(ByteBuffer data, uint32_t src, const JoinConfig& config,
                 bool with_counts);

  /// Appends the kept entries with key below `bound` (all of them with
  /// `all`) to `run` as node `src`'s, in stream order, and drops their
  /// bytes: every chunk whose last key is below the bound, and the prefix
  /// below it of the chunk that straddles it, found by a binary search over
  /// its entry offsets without decoding. Requires the plain wire format.
  /// A key's saturated entries all lie on one side of any bound, so none
  /// is split across batches.
  Status TryTakeBelow(uint64_t bound, bool all, uint32_t src,
                      const JoinConfig& config, bool with_counts,
                      std::vector<TrackEntry>* run);

  /// The last key pushed, 0 before any.
  uint64_t last_key() const { return last_key_; }

 private:
  struct Chunk {
    ByteBuffer bytes;
    uint64_t last_key;
  };
  std::vector<Chunk> chunks_;
  size_t head_ = 0;    ///< chunks_[head_..] hold the pending entries,
  size_t offset_ = 0;  ///< from byte offset_ of chunks_[head_] on.
  uint64_t last_key_ = 0;
};

/// Receives one key-range batch of a tracker's merged R and S entries.
using TrackBatchSink = std::function<void(const std::vector<TrackEntry>& r,
                                          const std::vector<TrackEntry>& s)>;

/// Entries the barrier tracker decodes ahead per merge batch, over all its
/// messages: 256 KiB of TrackEntry, so a batch's runs and merged output
/// stay in cache.
inline constexpr size_t kTrackBatchEntries = size_t{1} << 14;

/// Merges a tracker's R and S tracking messages, which
/// TryCheckTrackingMessages has accepted, in ascending key-range batches,
/// and hands each batch's merged entries (the MergeTrackEntries order, with
/// duplicate (key, node) counts summed) to `sink`. Each message decodes
/// about batch_entries / messages entries ahead, extended to the end of
/// their last key; a batch takes every key strictly below the smallest key
/// any message has not yet decoded, so a key's entries, saturated repeats
/// included, are never split across batches and the batches concatenate to
/// the one-batch merge. Merging is TryMergeTrackRuns, whose Status this
/// returns; memory beyond the messages is one batch's decoded and merged
/// entries.
Status TryMergeTrackBatches(std::span<const Message> r_messages,
                            std::span<const Message> s_messages,
                            const JoinConfig& config, bool with_counts,
                            const TrackBatchSink& sink,
                            size_t batch_entries = kTrackBatchEntries);

/// Merges all tracking messages of one inbox into one merged (key, node)
/// entry vector: TryCheckTrackingMessages, then TryMergeTrackBatches with
/// the batches appended to `out`. Output is byte-identical to decoding
/// every message and running MergeTrackEntries. A malformed message, or
/// one whose keys descend, returns Status::Corruption.
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
