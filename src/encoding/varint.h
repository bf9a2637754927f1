// Variable-length integer codecs.
//
// Two schemes:
//  * LEB128 — the standard 7-bit-per-byte varint, used internally for
//    delta-coded key streams (Section 2.4 of the paper).
//  * Base-100 — the paper's "variable byte" scheme for NUMBER-typed columns
//    (footnote 1: "The variable byte scheme of X, Y uses base 100
//    encoding"): each byte holds two decimal digits (0..99); the final byte
//    is offset by 100 to terminate the value. This reproduces the widths of
//    uncompressed commercial NUMBER columns in Figures 7, 8, 10 and 11.
#ifndef TJ_ENCODING_VARINT_H_
#define TJ_ENCODING_VARINT_H_

#include <cstdint>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace tj {

// ---------------------------------------------------------------------------
// LEB128
// ---------------------------------------------------------------------------

/// Number of bytes EncodeLeb128 would emit for v.
inline uint32_t Leb128Size(uint64_t v) {
  uint32_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends v in LEB128 form.
inline void EncodeLeb128(uint64_t v, ByteBuffer* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Writes v in LEB128 form at `p`, which has room for Leb128Size(v) bytes,
/// and returns the byte past it.
inline uint8_t* StoreLeb128(uint64_t v, uint8_t* p) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Reads the LEB128 value at `*p` and advances `*p` past it, checking
/// nothing: the bytes must be a varint TryDecodeLeb128 accepts.
inline uint64_t LoadLeb128(const uint8_t** p) {
  uint64_t v = 0;
  for (uint32_t shift = 0;; shift += 7) {
    const uint8_t b = *(*p)++;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

/// Decodes one LEB128 value at the reader's cursor. Truncated or overlong
/// varints return Status::Corruption and never read past the buffer.
inline Status TryDecodeLeb128(ByteReader* in, uint64_t* out) {
  uint64_t v = 0;
  uint32_t shift = 0;
  while (true) {
    if (in->remaining() == 0) {
      return Status::Corruption("truncated LEB128 varint");
    }
    uint8_t b = in->GetU8();
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) return Status::Corruption("overlong LEB128 varint");
  }
  *out = v;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Base-100 (paper's variable byte encoding for NUMBER columns)
// ---------------------------------------------------------------------------

/// Number of bytes EncodeBase100 would emit for v: ceil(decimal digit pairs).
inline uint32_t Base100Size(uint64_t v) {
  uint32_t n = 1;
  while (v >= 100) {
    v /= 100;
    ++n;
  }
  return n;
}

/// Appends v as base-100 digits, least significant pair first; the final
/// (most significant) byte is stored offset by 100 as the terminator.
inline void EncodeBase100(uint64_t v, ByteBuffer* out) {
  while (v >= 100) {
    out->push_back(static_cast<uint8_t>(v % 100));
    v /= 100;
  }
  out->push_back(static_cast<uint8_t>(v + 100));
}

/// Decodes one base-100 value at the reader's cursor. A stream that ends
/// without a terminator byte (>= 100) or runs longer than any encoded
/// uint64_t returns Status::Corruption.
inline Status TryDecodeBase100(ByteReader* in, uint64_t* out) {
  uint64_t v = 0;
  uint64_t scale = 1;
  for (uint32_t i = 0;; ++i) {
    if (in->remaining() == 0) {
      return Status::Corruption("truncated base-100 value");
    }
    if (i >= 10) return Status::Corruption("overlong base-100 value");
    uint8_t b = in->GetU8();
    if (b >= 100) {
      *out = v + scale * (b - 100);
      return Status::OK();
    }
    v += scale * b;
    scale *= 100;
  }
}

}  // namespace tj

#endif  // TJ_ENCODING_VARINT_H_
