// Physical tuple storage: fixed-width rows of <key, payload bytes>.
//
// A TupleBlock is the unit the execution engine operates on: one table's
// tuples resident at one node. Keys are 64-bit; payloads are a fixed number
// of bytes per row, stored contiguously. This matches the paper's
// implementation ("our implementation supports fixed byte widths").
#ifndef TJ_STORAGE_TUPLE_BLOCK_H_
#define TJ_STORAGE_TUPLE_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/logging.h"
#include "common/status.h"

namespace tj {

/// A read-only run of fixed-width payloads: one side of a join key group.
/// Row i's `width` bytes sit at base + i * stride, or, when `rows` is set,
/// at base + rows[i] * stride. The stride is the width unless the payloads
/// are read in place from wire rows, where each follows its key.
struct PayloadRun {
  PayloadRun() = default;
  /// A `stride` of 0 means `width`.
  PayloadRun(const uint8_t* base, uint32_t width, uint64_t size,
             const uint32_t* rows = nullptr, uint64_t stride = 0)
      : base(base), width(width), size(size), rows(rows),
        stride(stride != 0 ? stride : width) {}

  const uint8_t* base = nullptr;
  uint32_t width = 0;
  uint64_t size = 0;
  const uint32_t* rows = nullptr;
  uint64_t stride = 0;

  const uint8_t* operator[](uint64_t i) const {
    return base + (rows != nullptr ? rows[i] : i) * stride;
  }
};

class TupleBlock {
 public:
  explicit TupleBlock(uint32_t payload_width = 0)
      : payload_width_(payload_width) {}

  uint32_t payload_width() const { return payload_width_; }
  uint64_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  void Reserve(uint64_t rows) {
    keys_.reserve(rows);
    payloads_.reserve(rows * payload_width_);
  }

  /// Appends a row. `payload` must point at payload_width() bytes (may be
  /// null iff payload_width() == 0).
  void Append(uint64_t key, const uint8_t* payload) {
    keys_.push_back(key);
    if (payload_width_ > 0) {
      payloads_.insert(payloads_.end(), payload, payload + payload_width_);
    }
  }

  /// Appends row `row` of `other` (must have the same payload width).
  void AppendFrom(const TupleBlock& other, uint64_t row) {
    TJ_CHECK_EQ(payload_width_, other.payload_width_);
    Append(other.Key(row), other.Payload(row));
  }

  uint64_t Key(uint64_t row) const { return keys_[row]; }

  /// Pointer to row's payload bytes (valid until the block is modified).
  const uint8_t* Payload(uint64_t row) const {
    return payload_width_ == 0 ? nullptr
                               : payloads_.data() + row * payload_width_;
  }

  const std::vector<uint64_t>& keys() const { return keys_; }

  /// The payloads of rows [begin, end).
  PayloadRun Run(uint64_t begin, uint64_t end) const {
    return {Payload(begin), payload_width_, end - begin, nullptr};
  }

  /// The payloads of the listed rows (valid while `rows` is unmodified).
  PayloadRun Run(const std::vector<uint32_t>& rows) const {
    return {Payload(0), payload_width_, rows.size(), rows.data()};
  }

  /// Appends the |r|·|s| rows <key | r[i] | s[j]>, R-major: one key group's
  /// join output. Precondition: payload_width() == r.width + s.width.
  void AppendProduct(uint64_t key, const PayloadRun& r, const PayloadRun& s);

  /// Grows (or shrinks) the block to `rows` rows. New rows are
  /// zero-initialized; the radix kernels overwrite every row through the
  /// mutable accessors below before reading any.
  void Resize(uint64_t rows) {
    keys_.resize(rows);
    payloads_.resize(rows * payload_width_);
  }

  /// Raw write access for the scatter kernels (exec/partition.cc,
  /// exec/radix_sort.cc): concurrent writers must target disjoint rows.
  uint64_t* MutableKeys() { return keys_.data(); }
  uint8_t* MutablePayloads() { return payloads_.data(); }

  /// Width of one serialized row: key_bytes + payload bytes.
  uint32_t RowBytes(uint32_t key_bytes) const {
    return key_bytes + payload_width_;
  }

  /// Appends rows [begin, end) to `out`, each as a `key_bytes`-byte
  /// little-endian key (key_bytes in [1, 8]) followed by the payload. `out`
  /// is sized once; each row is one 8-byte key store plus one payload copy.
  void SerializeRows(uint64_t begin, uint64_t end, uint32_t key_bytes,
                     ByteBuffer* out) const;

  /// Appends the listed rows (by index, each below size()) to `out`, in list
  /// order, in SerializeRows' format.
  void SerializeRowsIndexed(std::span<const uint32_t> rows,
                            uint32_t key_bytes, ByteBuffer* out) const;

  /// Rebuilds the block keeping only rows where keep(row) is true.
  /// Preserves order. Returns the number of rows removed.
  uint64_t Filter(const std::function<bool(uint64_t row)>& keep);

  /// First and one-past-last row of the sorted block whose key equals `key`
  /// (empty range if absent). Precondition: sorted by key.
  std::pair<uint64_t, uint64_t> EqualRange(uint64_t key) const;

  /// Appends rows parsed from `in`, each `key_bytes` + payload_width bytes,
  /// until `in` is exhausted, reading each key with one masked 8-byte load
  /// wherever 8 bytes remain. Input whose size is not a whole number of rows
  /// returns Status::Corruption (and appends nothing).
  Status TryDeserializeRows(ByteReader* in, uint32_t key_bytes);

  /// Drops all rows, keeping capacity.
  void Clear() {
    keys_.clear();
    payloads_.clear();
  }

  /// A new block whose row i is row rows[i] of this one (each below
  /// size(); rows may repeat or be left out). The one gather of a sort or
  /// partition computed on keys alone: the source stays untouched. With a
  /// pool, the gather runs chunk-parallel; output is identical.
  TupleBlock Gather(std::span<const uint32_t> rows,
                    class ThreadPool* pool = nullptr) const;


  /// Total resident bytes (keys at 8 bytes + payloads).
  uint64_t MemoryBytes() const {
    return keys_.size() * 8 + payloads_.size();
  }

 private:
  /// The row writer of both serializers: appends row_at(i) for i in
  /// [0, count).
  template <typename RowAt>
  void AppendSerialized(uint64_t count, RowAt row_at, uint32_t key_bytes,
                        ByteBuffer* out) const;

  uint32_t payload_width_;
  std::vector<uint64_t> keys_;
  std::vector<uint8_t> payloads_;
};

/// First index in [from, end) at which `below(index)` fails, for a
/// predicate that holds on a prefix of [from, end) (keys of a sorted run
/// below some bound). A short gap, the common case of ascending probes,
/// ends a linear scan of at most 16 indexes; a longer one gallops on from
/// there with doubling steps, then binary-searches the last bracket, so a
/// gap of g costs O(log g). The one forward seek of every sorted-run
/// reader: EqualRangeCursor and both kinds of run in a merged view. Inline,
/// so probe loops pay no call.
template <typename Below>
inline uint64_t GallopPast(uint64_t from, uint64_t end, Below below) {
  constexpr uint64_t kScan = 16;
  const uint64_t scan_end = std::min(end, from + kScan);
  uint64_t lo = from;
  while (lo < scan_end && below(lo)) ++lo;
  if (lo < scan_end || lo == end) return lo;
  // Indexes [from, lo) satisfy `below`; index `hi` does not (or hi >= end).
  uint64_t hi = lo;
  for (uint64_t step = 1; hi < end && below(hi); step *= 2) {
    lo = hi + 1;
    hi = lo + step;
  }
  return *std::ranges::partition_point(
      std::views::iota(lo, std::min(hi, end)), below);
}

/// Forward equal-range cursor over a key-sorted block, for probe sequences
/// that mostly ascend (key-sorted chunks). Each Seek gallops forward
/// (GallopPast) from the previous range instead of binary-searching the
/// whole block, so an ascending run of probes costs O(log gap) per key. A
/// key below the previous probe restarts from row 0, so any probe order
/// returns exactly TupleBlock::EqualRange. The block must outlive the
/// cursor and stay unmodified while it is in use. A cursor over rows
/// [first, last) needs only those rows sorted, searches only them, and
/// returns row numbers of the whole block.
class EqualRangeCursor {
 public:
  explicit EqualRangeCursor(const TupleBlock& block)
      : EqualRangeCursor(block, 0, block.size()) {}
  EqualRangeCursor(const TupleBlock& block, uint64_t first, uint64_t last)
      : keys_(block.keys().data()), first_(first), end_(last), pos_(first) {}
  explicit EqualRangeCursor(TupleBlock&&) = delete;
  EqualRangeCursor(TupleBlock&&, uint64_t, uint64_t) = delete;

  std::pair<uint64_t, uint64_t> Seek(uint64_t key) {
    if (key < last_key_) pos_ = first_;
    last_key_ = key;
    const uint64_t* keys = keys_;
    const uint64_t lo = GallopPast(
        pos_, end_, [keys, key](uint64_t row) { return keys[row] < key; });
    const uint64_t hi = GallopPast(
        lo, end_, [keys, key](uint64_t row) { return keys[row] <= key; });
    pos_ = lo;
    return {lo, hi};
  }

 private:
  const uint64_t* keys_;
  uint64_t first_;
  uint64_t end_;
  uint64_t pos_;  ///< First row of the previous probe's range.
  uint64_t last_key_ = 0;
};

}  // namespace tj

#endif  // TJ_STORAGE_TUPLE_BLOCK_H_
