#include "core/tracker.h"

#include <algorithm>
#include <memory>
#include <ranges>
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

/// Calls fn(key, count) for each run of equal keys in non-decreasing
/// `keys`, in order, with the run's length as count.
template <typename Fn>
void ForEachKeyRun(std::span<const uint64_t> keys, Fn fn) {
  for (size_t first = 0; first < keys.size();) {
    size_t last = first + 1;
    while (last < keys.size() && keys[last] == keys[first]) ++last;
    fn(keys[first], last - first);
    first = last;
  }
}

/// The tracking encoder: `for_each_key(fn)` calls fn(key, count) once per
/// distinct key, at most `max_keys` times, and is walked twice, first to
/// hash each key to its destination and size every destination's message
/// exactly, then to write it.
template <typename ForEachKey>
std::vector<ByteBuffer> EncodeKeyCounts(const ForEachKey& for_each_key,
                                        size_t max_keys,
                                        const JoinConfig& config,
                                        bool with_counts, uint32_t num_nodes) {
  std::vector<ByteBuffer> per_dest(num_nodes);
  // Each key's destination, in walk order.
  const std::unique_ptr<uint32_t[]> dests =
      std::make_unique_for_overwrite<uint32_t[]>(max_keys);
  uint32_t* hashed = dests.get();
  auto dest_of = [&](uint64_t key) {
    return *hashed++ = HashPartition(key, num_nodes);
  };
  if (config.delta_tracking) {
    // Per destination: an LEB128 entry count, the keys' LEB128 gaps from 0,
    // then (with counts) the LEB128 counts, in key order.
    struct Dest {
      uint64_t entries = 0;
      uint64_t gap_bytes = 0;
      uint64_t count_bytes = 0;
      uint64_t last = 0;
      uint8_t* gap = nullptr;
      uint8_t* count = nullptr;
    };
    std::vector<Dest> sized(num_nodes);
    for_each_key([&](uint64_t key, uint64_t count) {
      Dest& d = sized[dest_of(key)];
      ++d.entries;
      d.gap_bytes += Leb128Size(key - d.last);
      d.last = key;
      if (with_counts) d.count_bytes += Leb128Size(count);
    });
    for (uint32_t dst = 0; dst < num_nodes; ++dst) {
      Dest& d = sized[dst];
      if (d.entries == 0) continue;
      per_dest[dst].resize(Leb128Size(d.entries) + d.gap_bytes +
                           d.count_bytes);
      d.gap = StoreLeb128(d.entries, per_dest[dst].data());
      d.count = d.gap + d.gap_bytes;
      d.last = 0;
    }
    const uint32_t* dest = dests.get();
    for_each_key([&](uint64_t key, uint64_t count) {
      Dest& d = sized[*dest++];
      d.gap = StoreLeb128(key - d.last, d.gap);
      d.last = key;
      if (with_counts) d.count = StoreLeb128(count, d.count);
    });
    return per_dest;
  }

  // Pass 1: each key's destination and the exact bytes per destination.
  const TrackingEntryWriter writer(config, with_counts);
  const uint32_t entry_bytes = writer.entry_bytes();
  std::vector<uint64_t> bytes(num_nodes, 0);
  uint64_t all_keys = 0;
  for_each_key([&](uint64_t key, uint64_t count) {
    all_keys |= key;
    bytes[dest_of(key)] += writer.Entries(count) * entry_bytes;
  });
  writer.CheckKeysFit(all_keys);

  // Pass 2: the entries, into buffers sized exactly plus the writer's 8
  // bytes of slack.
  std::vector<uint8_t*> cursor(num_nodes);
  for (uint32_t d = 0; d < num_nodes; ++d) {
    if (bytes[d] == 0) continue;
    per_dest[d].resize(bytes[d] + 8);
    cursor[d] = per_dest[d].data();
  }
  const uint32_t* dest = dests.get();
  for_each_key([&](uint64_t key, uint64_t count) {
    uint8_t*& p = cursor[*dest++];
    writer.Write(key, count, [&] { return std::exchange(p, p + entry_bytes); });
  });
  for (uint32_t d = 0; d < num_nodes; ++d) per_dest[d].resize(bytes[d]);
  return per_dest;
}

}  // namespace

std::vector<ByteBuffer> EncodeSortedTrackingMessages(
    std::span<const uint64_t> keys, const JoinConfig& config, bool with_counts,
    uint32_t num_nodes) {
  return EncodeKeyCounts([keys](auto fn) { ForEachKeyRun(keys, fn); },
                         keys.size(), config, with_counts, num_nodes);
}

std::vector<ByteBuffer> EncodeTrackingMessages(
    const std::vector<KeyCount>& keys, const JoinConfig& config,
    bool with_counts, uint32_t num_nodes) {
  return EncodeKeyCounts(
      [&keys](auto fn) {
        for (const KeyCount& kc : keys) fn(kc.key, kc.count);
      },
      keys.size(), config, with_counts, num_nodes);
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
  size_t rows_left = keys.size();
  ForEachKeyRun(keys, [&](uint64_t key, uint64_t count) {
    writer.Write(key, count, [&] {
      if (entries == capacity) {
        if (entries > 0) flush(/*eos=*/false);
        // A key has no more entries than rows, so the rows left bound the
        // entries left.
        capacity = std::min<uint64_t>(per_chunk, rows_left);
        chunk.resize(capacity * entry_bytes + 8);
      }
      watermark = key;
      return chunk.data() + entry_bytes * entries++;
    });
    rows_left -= count;
  });
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

namespace {

/// Reads one tracking message or pipelined chunk entry by entry, plain or
/// delta-coded per the config, in place. Open checks the framing, so Next
/// reads without bounds checks.
class TrackingEntryReader {
 public:
  TrackingEntryReader(const JoinConfig& config, bool with_counts)
      : delta_(config.delta_tracking),
        with_counts_(with_counts),
        layout_(config, with_counts) {}

  /// Starts reading `data`: a plain payload must be whole entries; a delta
  /// payload must hold exactly the varints of its declared entries' gaps
  /// and (with counts) counts, each complete. Otherwise Corruption.
  Status Open(std::span<const uint8_t> data) {
    data_ = data.data();
    size_ = data.size();
    if (!delta_) {
      if (size_ % layout_.entry_bytes() != 0) {
        return Status::Corruption(
            "tracking message not a multiple of entry size");
      }
      left_ = size_ / layout_.entry_bytes();
      pos_ = 0;
      return Status::OK();
    }
    ByteReader reader(data_, size_);
    TJ_RETURN_IF_ERROR(TryDecodeLeb128(&reader, &left_));
    if (left_ > reader.remaining()) {
      return Status::Corruption("delta stream count exceeds payload");
    }
    gap_ = reader.Current();
    uint64_t skipped = 0;
    for (uint64_t i = 0; i < left_ * (with_counts_ ? 2 : 1); ++i) {
      if (i == left_) count_ = reader.Current();
      TJ_RETURN_IF_ERROR(TryDecodeLeb128(&reader, &skipped));
    }
    if (!reader.Done()) {
      return Status::Corruption("trailing bytes in tracking message");
    }
    key_ = 0;  // Gaps accumulate from zero, wrapping.
    return Status::OK();
  }

  /// Entries not yet read.
  uint64_t left() const { return left_; }

  /// The next entry's key, without reading it. Requires left() > 0.
  uint64_t PeekKey() const {
    if (!delta_) {
      uint64_t key = 0;
      uint64_t count = 0;
      layout_.Decode(data_, pos_, size_, &key, &count);
      return key;
    }
    const uint8_t* gap = gap_;
    return key_ + LoadLeb128(&gap);
  }

  /// Reads the next entry; its count may exceed TrackEntry::count. Requires
  /// left() > 0.
  void Next(uint64_t* key, uint64_t* count) {
    --left_;
    if (!delta_) {
      layout_.Decode(data_, pos_, size_, key, count);
      pos_ += layout_.entry_bytes();
      return;
    }
    key_ += LoadLeb128(&gap_);
    *key = key_;
    *count = with_counts_ ? LoadLeb128(&count_) : 1;
  }

 private:
  bool delta_;
  bool with_counts_;
  PlainEntryLayout layout_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  uint64_t left_ = 0;
  size_t pos_ = 0;               // Plain: the next entry's offset.
  const uint8_t* gap_ = nullptr;    // Delta: the next key's gap,
  const uint8_t* count_ = nullptr;  // and its count.
  uint64_t key_ = 0;             // Delta: the last key read.
};

/// Reads every entry of `data` from `src` in order and hands each to
/// emit(key, count), then checks that no key descends, from `*last_key`
/// on, and that every count, and the counts of a key repeated in a row
/// summed, fit TrackEntry::count; `*last_key` becomes the last key read.
/// Faults are counted, not branched on, so the read loop stays
/// branch-free; a delta gap that wraps uint64_t reads as a descent.
template <typename Emit>
Status TryReadTrackingEntries(const ByteBuffer& data, uint32_t src,
                              const JoinConfig& config, bool with_counts,
                              uint64_t* last_key, Emit emit) {
  TrackingEntryReader reader(config, with_counts);
  TJ_RETURN_IF_ERROR(reader.Open(data));
  uint64_t prev = *last_key;
  uint64_t sum = 0;  // Of the counts of `prev`'s repeats in this payload.
  uint64_t descents = 0;
  uint64_t overflow = 0;
  while (reader.left() > 0) {
    uint64_t key = 0;
    uint64_t count = 0;
    reader.Next(&key, &count);
    emit(key, count);
    sum = (key == prev ? sum : 0) + count;
    overflow |= (count | sum) >> 32;
    descents += key < prev;
    prev = key;
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

}  // namespace

Status TrackingChunkStream::TryPush(ByteBuffer data, uint32_t src,
                                    const JoinConfig& config,
                                    bool with_counts) {
  TJ_RETURN_IF_ERROR(TryReadTrackingEntries(data, src, config, with_counts,
                                            &last_key_,
                                            [](uint64_t, uint64_t) {}));
  if (!data.empty()) chunks_.push_back(Chunk{std::move(data), last_key_});
  return Status::OK();
}

Status TrackingChunkStream::TryTakeBelow(uint64_t bound, bool all,
                                         uint32_t src,
                                         const JoinConfig& config,
                                         bool with_counts,
                                         std::vector<TrackEntry>* run) {
  TJ_CHECK(!config.delta_tracking) << "tracking chunks need the plain format";
  const PlainEntryLayout layout(config, with_counts);
  const size_t entry_bytes = layout.entry_bytes();
  // The batch takes chunks_[head_, last) whole, from byte offset_ of the
  // first, and chunks_[last], which straddles the bound, up to byte `cut`:
  // its first entry with key >= bound.
  size_t last = head_;
  size_t bytes = 0;
  for (; last < chunks_.size() && (all || chunks_[last].last_key < bound);
       ++last) {
    bytes += chunks_[last].bytes.size();
  }
  size_t cut = 0;
  if (last < chunks_.size()) {
    const ByteBuffer& straddling = chunks_[last].bytes;
    const auto entries =
        std::views::iota((last == head_ ? offset_ : 0) / entry_bytes,
                         straddling.size() / entry_bytes);
    cut = *std::ranges::partition_point(entries, [&](size_t i) {
      uint64_t key = 0;
      uint64_t count = 0;
      layout.Decode(straddling.data(), i * entry_bytes, straddling.size(),
                    &key, &count);
      return key < bound;
    }) * entry_bytes;
  }
  run->reserve(run->size() + (bytes + cut - offset_) / entry_bytes);

  TrackingEntryReader reader(config, with_counts);
  auto decode = [&](const ByteBuffer& chunk, size_t from,
                    size_t to) -> Status {
    TJ_RETURN_IF_ERROR(reader.Open(
        std::span<const uint8_t>(chunk).subspan(from, to - from)));
    while (reader.left() > 0) {
      uint64_t key = 0;
      uint64_t count = 0;
      reader.Next(&key, &count);
      run->push_back(TrackEntry{key, src, static_cast<uint32_t>(count)});
    }
    return Status::OK();
  };
  for (; head_ < last; ++head_, offset_ = 0) {
    ByteBuffer& chunk = chunks_[head_].bytes;
    TJ_RETURN_IF_ERROR(decode(chunk, offset_, chunk.size()));
    ByteBuffer().swap(chunk);
  }
  if (head_ < chunks_.size()) {
    TJ_RETURN_IF_ERROR(decode(chunks_[head_].bytes, offset_, cut));
    offset_ = cut;
  }
  if (head_ == chunks_.size()) {
    std::vector<Chunk>().swap(chunks_);
    head_ = 0;
  } else if (head_ * 2 >= chunks_.size()) {
    // Drop the taken prefix once it is half the vector, so the stream's
    // records stay proportional to what is pending.
    chunks_.erase(chunks_.begin(), chunks_.begin() + head_);
    head_ = 0;
  }
  return Status::OK();
}

Status TryCheckTrackingMessages(std::span<const Message> messages,
                                const JoinConfig& config, bool with_counts) {
  std::vector<uint32_t> sources;
  sources.reserve(messages.size());
  for (const Message& msg : messages) {
    uint64_t last_key = 0;
    TJ_RETURN_IF_ERROR(TryReadTrackingEntries(msg.data, msg.src, config,
                                              with_counts, &last_key,
                                              [](uint64_t, uint64_t) {}));
    sources.push_back(msg.src);
  }
  std::sort(sources.begin(), sources.end());
  const auto twice = std::adjacent_find(sources.begin(), sources.end());
  if (twice != sources.end()) {
    return Status::Corruption("node " + std::to_string(*twice) +
                              " sent two tracking messages to one tracker");
  }
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

/// One checked tracking message being merged batch by batch: its entries
/// decoded ahead into `entries_`, always to the end of a key.
class BatchedMessage {
 public:
  BatchedMessage(uint32_t src, const JoinConfig& config, bool with_counts)
      : src_(src), reader_(config, with_counts) {}

  Status Open(const ByteBuffer& data) { return reader_.Open(data); }

  /// Drops the entries taken and decodes until at least `quota` are held
  /// and the next entry starts a new key.
  void Fill(size_t quota) {
    entries_.erase(entries_.begin(), entries_.begin() + taken_);
    taken_ = 0;
    const size_t want = quota - std::min(quota, entries_.size());
    for (uint64_t n = std::min<uint64_t>(want, reader_.left()); n > 0; --n) {
      Read();
    }
    while (reader_.left() > 0 && reader_.PeekKey() == entries_.back().key) {
      Read();
    }
  }

  /// True when every entry is decoded; otherwise every key below
  /// NextKey() is.
  bool decoded_all() const { return reader_.left() == 0; }
  uint64_t NextKey() const { return reader_.PeekKey(); }

  /// Takes the held entries with key below `bound`, or all with `all`.
  std::span<const TrackEntry> Take(uint64_t bound, bool all) {
    const auto first = entries_.begin() + taken_;
    const auto last =
        all ? entries_.end()
            : std::lower_bound(first, entries_.end(), bound,
                               [](const TrackEntry& e, uint64_t key) {
                                 return e.key < key;
                               });
    taken_ = last - entries_.begin();
    return {first, last};
  }

 private:
  void Read() {
    uint64_t key = 0;
    uint64_t count = 0;
    reader_.Next(&key, &count);
    entries_.push_back(TrackEntry{key, src_, static_cast<uint32_t>(count)});
  }

  uint32_t src_;
  TrackingEntryReader reader_;
  std::vector<TrackEntry> entries_;
  size_t taken_ = 0;
};

}  // namespace

Status TryMergeTrackBatches(std::span<const Message> r_messages,
                            std::span<const Message> s_messages,
                            const JoinConfig& config, bool with_counts,
                            const TrackBatchSink& sink, size_t batch_entries) {
  std::vector<BatchedMessage> tables[2];
  const std::span<const Message> inboxes[2] = {r_messages, s_messages};
  for (int t : {0, 1}) {
    tables[t].reserve(inboxes[t].size());
    for (const Message& msg : inboxes[t]) {
      if (msg.data.empty()) continue;
      tables[t].emplace_back(msg.src, config, with_counts);
      TJ_RETURN_IF_ERROR(tables[t].back().Open(msg.data));
    }
  }
  const size_t quota = std::max<size_t>(
      1, batch_entries / std::max<size_t>(
                             1, tables[0].size() + tables[1].size()));
  std::vector<std::span<const TrackEntry>> runs;
  std::vector<TrackEntry> merged[2];
  for (uint64_t lo = 0;;) {
    // Every key below the smallest key still undecoded is held in full.
    bool all = true;
    uint64_t bound = ~0ULL;
    for (auto& table : tables) {
      for (BatchedMessage& msg : table) {
        msg.Fill(quota);
        if (msg.decoded_all()) continue;
        all = false;
        bound = std::min(bound, msg.NextKey());
      }
    }
    for (int t : {0, 1}) {
      runs.clear();
      for (BatchedMessage& msg : tables[t]) {
        const std::span<const TrackEntry> run = msg.Take(bound, all);
        if (!run.empty()) runs.push_back(run);
      }
      TJ_RETURN_IF_ERROR(TryMergeTrackRuns(runs, lo, &merged[t]));
    }
    if (!merged[0].empty() || !merged[1].empty()) sink(merged[0], merged[1]);
    if (all) return Status::OK();
    lo = bound;
  }
}

Status TryMergeTrackingMessages(const std::vector<Message>& messages,
                                const JoinConfig& config, bool with_counts,
                                std::vector<TrackEntry>* out) {
  out->clear();
  TJ_RETURN_IF_ERROR(TryCheckTrackingMessages(messages, config, with_counts));
  // At most one entry per plain entry's bytes, or per delta varint (two
  // with counts).
  const uint32_t min_entry_bytes =
      config.delta_tracking ? (with_counts ? 2 : 1)
                            : PlainEntryLayout(config, with_counts)
                                  .entry_bytes();
  size_t bytes = 0;
  for (const Message& msg : messages) bytes += msg.data.size();
  out->reserve(bytes / min_entry_bytes);
  return TryMergeTrackBatches(
      messages, {}, config, with_counts,
      [out](const std::vector<TrackEntry>& r, const std::vector<TrackEntry>&) {
        out->insert(out->end(), r.begin(), r.end());
      });
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
