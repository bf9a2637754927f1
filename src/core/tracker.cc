#include "core/tracker.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/kway_merge.h"
#include "encoding/delta.h"
#include "encoding/varint.h"

namespace tj {

namespace {

/// Writes the plain tracking entries of one key, storing each field as one
/// 8-byte word, so a buffer needs 8 bytes of slack past its last entry. A
/// count that count_bytes cannot hold ships as saturated entries, the
/// remainder last, which the tracker re-aggregates ("we can aggregate at
/// the destination").
class TrackingEntryWriter {
 public:
  TrackingEntryWriter(const JoinConfig& config, bool with_counts)
      : key_bytes_(config.key_bytes),
        count_bytes_(with_counts ? config.count_bytes : 0),
        key_mask_(FieldMask(key_bytes_)),
        max_count_(FieldMask(with_counts ? count_bytes_ : 8)) {
    TJ_CHECK(key_bytes_ >= 1 && key_bytes_ <= 8) << "key_bytes=" << key_bytes_;
    TJ_CHECK(!with_counts || (count_bytes_ >= 1 && count_bytes_ <= 8))
        << "count_bytes=" << count_bytes_;
  }

  uint32_t entry_bytes() const { return key_bytes_ + count_bytes_; }

  /// Entries of a key held `count` times; only saturated counts divide.
  uint64_t Entries(uint64_t count) const {
    return count <= max_count_
               ? 1
               : count / max_count_ + (count % max_count_ != 0);
  }

  /// Checks that keys fit in key_bytes: given their bitwise OR, or the
  /// largest of them, every key fits iff it does.
  void CheckKeysFit(uint64_t keys) const {
    TJ_CHECK((keys & ~key_mask_) == 0) << "key does not fit in key_bytes";
  }

  /// Writes the entries of `key`, each where `at()` says. CheckKeysFit
  /// must have covered `key`.
  template <typename At>
  void Write(uint64_t key, uint64_t count, At at) const {
    for (; count > max_count_; count -= max_count_) {
      Store(at(), key, max_count_);
    }
    Store(at(), key, count);
  }

 private:
  void Store(uint8_t* p, uint64_t key, uint64_t count) const {
    StoreLe64(p, key);
    if (count_bytes_ != 0) StoreLe64(p + key_bytes_, count);
  }

  uint32_t key_bytes_;
  uint32_t count_bytes_;
  uint64_t key_mask_;
  uint64_t max_count_;
};

}  // namespace

std::vector<ByteBuffer> EncodeTrackingMessages(
    const std::vector<KeyCount>& keys, const JoinConfig& config,
    bool with_counts, uint32_t num_nodes) {
  std::vector<ByteBuffer> per_dest(num_nodes);
  if (config.delta_tracking) {
    // Sorted keys per destination, delta-coded; counts (if any) follow as
    // LEB128 in key order. Input keys arrive sorted, so per-destination
    // streams stay sorted.
    if (num_nodes > 0 && keys.size() >= static_cast<size_t>(num_nodes) * 4) {
      // Hash partitioning spreads keys near-uniformly, so pre-size each
      // destination close to its final footprint. Delta streams come in
      // under the hint; the hint only bounds the growth-reallocation chain,
      // never the emitted bytes.
      const uint32_t entry_bytes =
          config.key_bytes + (with_counts ? config.count_bytes : 0);
      const size_t hint = keys.size() * entry_bytes / num_nodes + 16;
      for (auto& buf : per_dest) buf.reserve(hint);
    }
    std::vector<std::vector<uint64_t>> dest_keys(num_nodes);
    std::vector<std::vector<uint64_t>> dest_counts(num_nodes);
    for (const auto& kc : keys) {
      uint32_t dest = HashPartition(kc.key, num_nodes);
      dest_keys[dest].push_back(kc.key);
      if (with_counts) dest_counts[dest].push_back(kc.count);
    }
    for (uint32_t d = 0; d < num_nodes; ++d) {
      if (dest_keys[d].empty()) continue;
      DeltaEncode(dest_keys[d], /*presorted=*/true, &per_dest[d]);
      if (with_counts) {
        for (uint64_t c : dest_counts[d]) EncodeLeb128(c, &per_dest[d]);
      }
    }
    return per_dest;
  }

  // Pass 1: each key's destination and the exact bytes per destination.
  const TrackingEntryWriter writer(config, with_counts);
  const uint32_t entry_bytes = writer.entry_bytes();
  std::vector<uint32_t> dests(keys.size());
  std::vector<uint64_t> bytes(num_nodes, 0);
  uint64_t all_keys = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const KeyCount& kc = keys[i];
    const uint32_t dest = HashPartition(kc.key, num_nodes);
    dests[i] = dest;
    all_keys |= kc.key;
    bytes[dest] += writer.Entries(kc.count) * entry_bytes;
  }
  writer.CheckKeysFit(all_keys);

  // Pass 2: the entries, into buffers sized exactly plus the writer's 8
  // bytes of slack.
  std::vector<uint8_t*> cursor(num_nodes);
  for (uint32_t d = 0; d < num_nodes; ++d) {
    if (bytes[d] == 0) continue;
    per_dest[d].resize(bytes[d] + 8);
    cursor[d] = per_dest[d].data();
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    uint8_t*& p = cursor[dests[i]];
    writer.Write(keys[i].key, keys[i].count,
                 [&] { return std::exchange(p, p + entry_bytes); });
  }
  for (uint32_t d = 0; d < num_nodes; ++d) per_dest[d].resize(bytes[d]);
  return per_dest;
}

uint64_t WriteTrackingChunks(std::span<const uint64_t> keys,
                             const JoinConfig& config, bool with_counts,
                             uint64_t chunk_bytes,
                             const TrackingChunkSink& emit) {
  TJ_CHECK(!config.delta_tracking) << "tracking chunks need the plain format";
  const TrackingEntryWriter writer(config, with_counts);
  if (!keys.empty()) writer.CheckKeysFit(keys.back());
  const uint64_t entry_bytes = writer.entry_bytes();
  const uint64_t per_chunk = std::max<uint64_t>(1, chunk_bytes / entry_bytes);
  uint64_t written = 0;
  ByteBuffer chunk;
  uint64_t entries = 0;   // In `chunk`.
  uint64_t capacity = 0;  // Entries `chunk` has room for.
  uint64_t watermark = 0;
  auto flush = [&](bool eos) {
    chunk.resize(entries * entry_bytes);
    written += chunk.size();
    emit(std::move(chunk), eos, watermark);
    chunk = ByteBuffer();
    entries = capacity = 0;
  };
  for (size_t first = 0; first < keys.size();) {
    size_t last = first + 1;
    while (last < keys.size() && keys[last] == keys[first]) ++last;
    writer.Write(keys[first], last - first, [&] {
      if (entries == capacity) {
        if (entries > 0) flush(/*eos=*/false);
        // A key has no more entries than rows, so the rows left bound the
        // entries left.
        capacity = std::min<uint64_t>(per_chunk, keys.size() - first);
        chunk.resize(capacity * entry_bytes + 8);
      }
      watermark = keys[first];
      return chunk.data() + entry_bytes * entries++;
    });
    first = last;
  }
  flush(/*eos=*/true);
  return written;
}

namespace {

/// A tracked count must fit TrackEntry::count.
Status CountOverflow(uint32_t src) {
  return Status::Corruption("tracking count from node " + std::to_string(src) +
                            " exceeds UINT32_MAX");
}

Status CheckCount(uint64_t count, uint32_t src) {
  return count > UINT32_MAX ? CountOverflow(src) : Status::OK();
}

/// Grows `run`'s capacity to at least `size` entries geometrically, so
/// chunk-by-chunk appends stay amortized O(1) without resize's zero fill.
void ReserveGeometric(std::vector<TrackEntry>* run, size_t size) {
  if (run->capacity() < size) {
    run->reserve(std::max(size, 2 * run->capacity()));
  }
}

}  // namespace

Status TryDecodeTrackingMessage(const Message& message,
                                const JoinConfig& config, bool with_counts,
                                std::vector<TrackEntry>* out) {
  out->clear();
  ByteReader reader(message.data);
  if (config.delta_tracking) {
    std::vector<uint64_t> keys;
    TJ_RETURN_IF_ERROR(TryDeltaDecode(&reader, &keys));
    out->reserve(keys.size());
    for (uint64_t key : keys) {
      out->push_back(TrackEntry{key, message.src, 1});
    }
    if (with_counts) {
      for (auto& e : *out) {
        uint64_t count = 0;
        TJ_RETURN_IF_ERROR(TryDecodeLeb128(&reader, &count));
        TJ_RETURN_IF_ERROR(CheckCount(count, message.src));
        e.count = static_cast<uint32_t>(count);
      }
    }
    if (!reader.Done()) {
      return Status::Corruption("trailing bytes in tracking message");
    }
    return Status::OK();
  }
  const uint32_t entry_bytes =
      config.key_bytes + (with_counts ? config.count_bytes : 0);
  if (reader.remaining() % entry_bytes != 0) {
    return Status::Corruption("tracking message not a multiple of entry size");
  }
  out->reserve(reader.remaining() / entry_bytes);
  while (!reader.Done()) {
    uint64_t key = reader.GetUint(config.key_bytes);
    uint64_t count = with_counts ? reader.GetUint(config.count_bytes) : 1;
    TJ_RETURN_IF_ERROR(CheckCount(count, message.src));
    out->push_back(
        TrackEntry{key, message.src, static_cast<uint32_t>(count)});
  }
  return Status::OK();
}

void MergeTrackEntries(std::vector<TrackEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const TrackEntry& a, const TrackEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.node < b.node;
            });
  size_t out = 0;
  for (size_t i = 0; i < entries->size();) {
    TrackEntry merged = (*entries)[i];
    uint64_t count = merged.count;
    size_t j = i + 1;
    while (j < entries->size() && (*entries)[j].key == merged.key &&
           (*entries)[j].node == merged.node) {
      count += (*entries)[j].count;
      ++j;
    }
    TJ_CHECK_LE(count, uint64_t{UINT32_MAX}) << "key " << merged.key;
    merged.count = static_cast<uint32_t>(count);
    (*entries)[out++] = merged;
    i = j;
  }
  entries->resize(out);
}

PlainEntryLayout::PlainEntryLayout(uint32_t key_bytes, uint32_t value_bytes)
    : key_bytes_(key_bytes),
      value_bytes_(value_bytes),
      entry_bytes_(key_bytes + value_bytes),
      key_mask_(FieldMask(key_bytes)),
      value_mask_(value_bytes > 0 ? FieldMask(value_bytes) : 0),
      value_floor_(value_bytes > 0 ? 0 : 1) {
  TJ_CHECK(key_bytes >= 1 && key_bytes <= 8) << "key_bytes=" << key_bytes;
  TJ_CHECK_LE(value_bytes, 8u);
}

Status TryAppendTrackingEntries(const ByteBuffer& data, uint32_t src,
                                const JoinConfig& config, bool with_counts,
                                uint64_t* last_key,
                                std::vector<TrackEntry>* run) {
  // Descents and count overflows are counted, not branched on, so the
  // decode loops stay branch-free; a delta gap that wraps uint64_t decodes
  // as a descent.
  const size_t base = run->size();
  uint64_t prev = *last_key;
  uint64_t descents = 0;
  uint64_t overflow = 0;
  if (config.delta_tracking) {
    ByteReader reader(data);
    uint64_t n = 0;
    TJ_RETURN_IF_ERROR(TryDecodeLeb128(&reader, &n));
    if (n > reader.remaining()) {
      return Status::Corruption("delta stream count exceeds payload");
    }
    ReserveGeometric(run, base + n);
    uint64_t key = 0;  // Gaps accumulate from zero.
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t gap = 0;
      TJ_RETURN_IF_ERROR(TryDecodeLeb128(&reader, &gap));
      key += gap;
      run->push_back(TrackEntry{key, src, 1});
      descents += key < prev;
      prev = key;
    }
    for (size_t i = base; with_counts && i < run->size(); ++i) {
      uint64_t count = 0;
      TJ_RETURN_IF_ERROR(TryDecodeLeb128(&reader, &count));
      overflow |= count >> 32;
      (*run)[i].count = static_cast<uint32_t>(count);
    }
    if (!reader.Done()) {
      return Status::Corruption("trailing bytes in tracking message");
    }
  } else {
    const PlainEntryLayout layout(config, with_counts);
    const size_t size = data.size();
    if (size % layout.entry_bytes() != 0) {
      return Status::Corruption(
          "tracking message not a multiple of entry size");
    }
    ReserveGeometric(run, base + size / layout.entry_bytes());
    for (size_t pos = 0; pos < size; pos += layout.entry_bytes()) {
      uint64_t key = 0;
      uint64_t count = 0;
      layout.Decode(data.data(), pos, size, &key, &count);
      run->push_back(TrackEntry{key, src, static_cast<uint32_t>(count)});
      overflow |= count >> 32;
      descents += key < prev;
      prev = key;
    }
  }
  if (overflow != 0) return CountOverflow(src);
  if (descents != 0) {
    return Status::Corruption("tracking stream from node " +
                              std::to_string(src) +
                              " descends: keys must arrive ascending");
  }
  *last_key = prev;
  return Status::OK();
}

namespace {

/// Merge cursor over one in-memory run, whose entries should all carry the
/// node of its first.
class TrackRunCursor {
 public:
  explicit TrackRunCursor(std::span<const TrackEntry> run)
      : head_(run.data()), end_(run.data() + run.size()),
        node_(run.front().node) {}

  bool Valid() const { return head_ != end_; }
  uint64_t key() const { return head_->key; }
  const TrackEntry& head() const { return *head_; }
  /// The run's node.
  uint32_t node() const { return node_; }
  void Next() { ++head_; }

 private:
  const TrackEntry* head_;
  const TrackEntry* end_;
  uint32_t node_;
};

/// Names the first run that descends or mixes nodes.
Status RunFault(std::span<const std::span<const TrackEntry>> runs) {
  for (std::span<const TrackEntry> run : runs) {
    for (size_t i = 1; i < run.size(); ++i) {
      if (run[i].key < run[i - 1].key) {
        return Status::Corruption("tracking run descends at key " +
                                  std::to_string(run[i].key) + " from node " +
                                  std::to_string(run[i].node));
      }
      if (run[i].node != run.front().node) {
        return Status::Corruption(
            "tracking run mixes nodes " + std::to_string(run.front().node) +
            " and " + std::to_string(run[i].node) + " at key " +
            std::to_string(run[i].key));
      }
    }
  }
  return Status::Internal("tracking merge fault not found in its runs");
}

}  // namespace

Status TryMergeTrackingMessages(const std::vector<Message>& messages,
                                const JoinConfig& config, bool with_counts,
                                std::vector<TrackEntry>* out) {
  out->clear();
  // One buffer for every message's entries; the runs view it once all
  // are decoded, since appending may move it.
  std::vector<TrackEntry> entries;
  if (!config.delta_tracking) {
    const uint32_t entry_bytes = PlainEntryLayout(config, with_counts)
                                     .entry_bytes();
    size_t bytes = 0;
    for (const Message& msg : messages) bytes += msg.data.size();
    entries.reserve(bytes / entry_bytes);
  }
  std::vector<size_t> ends;
  ends.reserve(messages.size());
  for (const Message& msg : messages) {
    uint64_t last_key = 0;
    TJ_RETURN_IF_ERROR(TryAppendTrackingEntries(
        msg.data, msg.src, config, with_counts, &last_key, &entries));
    ends.push_back(entries.size());
  }
  std::vector<std::span<const TrackEntry>> runs;
  runs.reserve(ends.size());
  size_t begin = 0;
  for (size_t end : ends) {
    runs.emplace_back(entries.data() + begin, end - begin);
    begin = end;
  }
  return TryMergeTrackRuns(runs, /*min_key=*/0, out);
}

Status TryMergeTrackRuns(std::span<const std::span<const TrackEntry>> runs,
                         uint64_t min_key, std::vector<TrackEntry>* out) {
  out->clear();
  std::vector<TrackRunCursor> cursors;
  cursors.reserve(runs.size());
  uint64_t total = 0;
  for (std::span<const TrackEntry> run : runs) {
    if (run.empty()) continue;
    const TrackEntry& first = run.front();
    if (first.key < min_key) {
      return Status::Corruption(
          "tracking run from node " + std::to_string(first.node) +
          " has key " + std::to_string(first.key) +
          " below its batch's range start " + std::to_string(min_key));
    }
    total += run.size();
    cursors.emplace_back(run);
  }
  // Ordering the cursors stably by node first makes the tree's tie-break
  // toward the lower index the MergeTrackEntries (key, node) order.
  std::stable_sort(cursors.begin(), cursors.end(),
                   [](const TrackRunCursor& a, const TrackRunCursor& b) {
                     return a.node() < b.node();
                   });
  for (size_t i = 1; i < cursors.size(); ++i) {
    if (cursors[i].node() == cursors[i - 1].node()) {
      return Status::Corruption("node " + std::to_string(cursors[i].node()) +
                                " has two tracking runs in one batch");
    }
  }
  out->reserve(total);
  // The merge pops keys in ascending order exactly when every run ascends,
  // so flagging output descents (and entries off their run's node) checks
  // the runs without a pass of its own.
  uint64_t faults = 0;
  uint64_t overflow = 0;
  uint64_t last_key = 0;
  LoserTree<TrackRunCursor> tree(&cursors);
  while (!tree.Done()) {
    const TrackRunCursor& top = tree.Top();
    const TrackEntry head{tree.TopKey(), top.head().node, top.head().count};
    faults |= (head.key < last_key) | (head.node ^ top.node());
    last_key = head.key;
    if (!out->empty() && out->back().key == head.key &&
        out->back().node == head.node) {
      const uint64_t sum = uint64_t{out->back().count} + head.count;
      overflow |= sum >> 32;
      out->back().count = static_cast<uint32_t>(sum);
    } else {
      out->push_back(head);
    }
    tree.Pop();
  }
  if (faults != 0) {
    out->clear();
    return RunFault(runs);
  }
  if (overflow != 0) {
    out->clear();
    return Status::Corruption(
        "tracking counts of one (key, node) sum past UINT32_MAX");
  }
  return Status::OK();
}


PlacementIterator::PlacementIterator(const std::vector<TrackEntry>& r_entries,
                                     const std::vector<TrackEntry>& s_entries,
                                     uint32_t width_r, uint32_t width_s,
                                     uint32_t tracker, uint64_t msg_bytes)
    : r_entries_(r_entries),
      s_entries_(s_entries),
      width_r_(width_r),
      width_s_(width_s) {
  placement_.tracker = tracker;
  placement_.msg_bytes = msg_bytes;
}

bool PlacementIterator::Next() {
  while (ri_ < r_entries_.size() && si_ < s_entries_.size()) {
    uint64_t rk = r_entries_[ri_].key;
    uint64_t sk = s_entries_[si_].key;
    if (rk < sk) {
      while (ri_ < r_entries_.size() && r_entries_[ri_].key == rk) ++ri_;
    } else if (sk < rk) {
      while (si_ < s_entries_.size() && s_entries_[si_].key == sk) ++si_;
    } else {
      key_ = rk;
      placement_.r.clear();
      placement_.s.clear();
      r_rows_ = 0;
      s_rows_ = 0;
      while (ri_ < r_entries_.size() && r_entries_[ri_].key == rk) {
        const TrackEntry& e = r_entries_[ri_];
        placement_.r.push_back(NodeSize{e.node, uint64_t{e.count} * width_r_});
        r_rows_ += e.count;
        ++ri_;
      }
      while (si_ < s_entries_.size() && s_entries_[si_].key == rk) {
        const TrackEntry& e = s_entries_[si_];
        placement_.s.push_back(NodeSize{e.node, uint64_t{e.count} * width_s_});
        s_rows_ += e.count;
        ++si_;
      }
      return true;
    }
  }
  return false;
}

bool PlacementIterator::OutputProductAtLeast(uint64_t threshold) const {
  uint64_t product;
  if (__builtin_mul_overflow(r_rows_, s_rows_, &product)) {
    return true;  // Saturate: the true product certainly exceeds any u64.
  }
  return product >= threshold;
}

ByteBuffer EncodeKeyNodePairs(std::span<const KeyNodePair> pairs,
                              const JoinConfig& config) {
  ByteBuffer out;
  if (config.group_locations) {
    NodeGroupEncode({pairs.begin(), pairs.end()}, config.key_bytes, &out);
    return out;
  }
  const uint32_t key_bytes = config.key_bytes;
  const uint32_t node_bytes = config.node_bytes;
  TJ_CHECK(key_bytes >= 1 && key_bytes <= 8) << "key_bytes=" << key_bytes;
  TJ_CHECK(node_bytes >= 1 && node_bytes <= 8) << "node_bytes=" << node_bytes;
  // One word store per field into a buffer with 8 bytes of slack, trimmed.
  const size_t bytes = pairs.size() * (key_bytes + node_bytes);
  out.resize(bytes + 8);
  uint8_t* p = out.data();
  for (const KeyNodePair& pair : pairs) {
    StoreLe64(p, pair.key);
    StoreLe64(p + key_bytes, pair.node);
    p += key_bytes + node_bytes;
  }
  out.resize(bytes);
  return out;
}

Status TryDecodeKeyNodePairs(const ByteBuffer& data, const JoinConfig& config,
                             std::vector<KeyNodePair>* out) {
  out->clear();
  ByteReader reader(data);
  if (config.group_locations) {
    return TryNodeGroupDecode(&reader, config.key_bytes, out);
  }
  const PlainEntryLayout layout(config.key_bytes, config.node_bytes);
  const size_t size = data.size();
  if (size % layout.entry_bytes() != 0) {
    return Status::Corruption("pair message not a multiple of pair size");
  }
  out->resize(size / layout.entry_bytes());
  KeyNodePair* pair = out->data();
  for (size_t pos = 0; pos < size; pos += layout.entry_bytes(), ++pair) {
    uint64_t node = 0;
    layout.Decode(data.data(), pos, size, &pair->key, &node);
    pair->node = static_cast<uint32_t>(node);
  }
  return Status::OK();
}

}  // namespace tj
