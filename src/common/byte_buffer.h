// Growable byte buffer plus little-endian reader/writer cursors.
//
// Every message that crosses the simulated network is serialized through
// these, so the byte counts the traffic accountant reports are the real
// serialized sizes.
#ifndef TJ_COMMON_BYTE_BUFFER_H_
#define TJ_COMMON_BYTE_BUFFER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace tj {

using ByteBuffer = std::vector<uint8_t>;

/// The low `width` bytes of a word set (width in [0, 8]): the mask that
/// cuts a `width`-byte field out of an 8-byte load.
inline uint64_t FieldMask(uint32_t width) {
  return width >= 8 ? ~0ULL : (1ULL << (8 * width)) - 1;
}

/// Unaligned little-endian 8-byte load. Word-at-a-time codecs read a
/// narrower field with LoadLe64(p) & FieldMask(width) wherever 8 bytes
/// remain in the buffer.
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Reads a `width`-byte little-endian field (width in [0, 8]) at `p`, with
/// `avail` bytes readable from `p` on: one 8-byte load and a mask wherever
/// 8 bytes remain, byte by byte in a buffer's last few bytes.
inline uint64_t LoadLeField(const uint8_t* p, size_t avail, uint32_t width) {
  if (avail >= 8) return LoadLe64(p) & FieldMask(width);
  uint64_t v = 0;
  for (uint32_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Unaligned little-endian 8-byte store. A narrower field is written as a
/// whole word into a buffer with 8 bytes of slack; the next field (or the
/// final trim) overwrites the bytes past it.
inline void StoreLe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

/// Appends fixed- and variable-width little-endian integers to a ByteBuffer.
class ByteWriter {
 public:
  explicit ByteWriter(ByteBuffer* out) : out_(out) { TJ_CHECK(out != nullptr); }

  /// Writes the low `width` bytes of v (width in [0,8]).
  void PutUint(uint64_t v, uint32_t width) {
    TJ_CHECK_LE(width, 8u);
    for (uint32_t i = 0; i < width; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutUint(v, 2); }
  void PutU32(uint32_t v) { PutUint(v, 4); }
  void PutU64(uint64_t v) { PutUint(v, 8); }

  void PutBytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + size);
  }

  size_t size() const { return out_->size(); }

 private:
  ByteBuffer* out_;
};

/// Reads little-endian integers from a byte range. Out-of-bounds reads are
/// programming errors and abort.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const ByteBuffer& buf)
      : ByteReader(buf.data(), buf.size()) {}

  /// Reads a `width`-byte little-endian unsigned integer (width in [0,8]).
  uint64_t GetUint(uint32_t width) {
    TJ_CHECK_LE(width, 8u);
    TJ_CHECK_LE(pos_ + width, size_);
    uint64_t v = 0;
    for (uint32_t i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  uint8_t GetU8() { return static_cast<uint8_t>(GetUint(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetUint(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetUint(4)); }
  uint64_t GetU64() { return GetUint(8); }

  /// Copies `size` bytes into `out`; with `size` 0, `out` may be null.
  void GetBytes(void* out, size_t size) {
    TJ_CHECK_LE(pos_ + size, size_);
    if (size == 0) return;  // memcpy's pointers must be non-null even then.
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  /// Pointer to the current position without consuming.
  const uint8_t* Current() const { return data_ + pos_; }

  /// Advances the cursor by `size` bytes.
  void Skip(size_t size) {
    TJ_CHECK_LE(pos_ + size, size_);
    pos_ += size;
  }

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace tj

#endif  // TJ_COMMON_BYTE_BUFFER_H_
