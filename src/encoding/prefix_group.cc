#include "encoding/prefix_group.h"

#include <algorithm>

#include "common/logging.h"
#include "encoding/bitpack.h"
#include "encoding/varint.h"

namespace tj {

namespace {

void CheckParams(uint32_t width_bits, uint32_t prefix_bits) {
  TJ_CHECK_GE(width_bits, 1u);
  TJ_CHECK_LE(width_bits, 64u);
  TJ_CHECK_LT(prefix_bits, width_bits);
}

uint64_t SuffixMask(uint32_t suffix_bits) {
  return suffix_bits == 64 ? ~0ULL : ((1ULL << suffix_bits) - 1);
}

// suffix_bits equals width_bits when prefix_bits is 0 and can then be 64;
// a shift by 64 is undefined, so the degenerate case is spelled out.
uint64_t PrefixOf(uint64_t value, uint32_t suffix_bits) {
  return suffix_bits == 64 ? 0 : value >> suffix_bits;
}

uint64_t Reassemble(uint64_t prefix, uint64_t suffix, uint32_t suffix_bits) {
  return suffix_bits == 64 ? suffix : (prefix << suffix_bits) | suffix;
}

}  // namespace

void PrefixGroupEncode(std::vector<uint64_t> values, uint32_t width_bits,
                       uint32_t prefix_bits, ByteBuffer* out) {
  CheckParams(width_bits, prefix_bits);
  std::sort(values.begin(), values.end());
  const uint32_t suffix_bits = width_bits - prefix_bits;
  EncodeLeb128(values.size(), out);
  BitPacker packer(out);
  size_t i = 0;
  while (i < values.size()) {
    uint64_t prefix = PrefixOf(values[i], suffix_bits);
    size_t j = i;
    while (j < values.size() && PrefixOf(values[j], suffix_bits) == prefix) ++j;
    if (prefix_bits > 0) packer.Put(prefix, prefix_bits);
    // Group length as a bit-packed LEB-style count would complicate the
    // stream; a full 32-bit count would bloat it. Use width_bits as the
    // count width: a group can never exceed the suffix domain... it can
    // (duplicates), so use 32 bits which is exact and simple.
    packer.Put(j - i, 32);
    for (size_t k = i; k < j; ++k) {
      packer.Put(values[k] & SuffixMask(suffix_bits), suffix_bits);
    }
    i = j;
  }
}

Status TryPrefixGroupDecode(ByteReader* in, uint32_t width_bits,
                            uint32_t prefix_bits, std::vector<uint64_t>* out) {
  CheckParams(width_bits, prefix_bits);
  const uint32_t suffix_bits = width_bits - prefix_bits;
  out->clear();
  uint64_t total = 0;
  TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &total));
  BitUnpacker unpacker(in->Current(), in->remaining());
  // Each value costs at least suffix_bits (suffix_bits >= 1), so an honest
  // total can never exceed the remaining bit budget.
  if (total > unpacker.bits_remaining() / suffix_bits) {
    return Status::Corruption("prefix-group total exceeds payload");
  }
  out->reserve(total);
  while (out->size() < total) {
    if (unpacker.bits_remaining() < prefix_bits + 32) {
      return Status::Corruption("truncated prefix-group header");
    }
    uint64_t prefix = prefix_bits > 0 ? unpacker.Get(prefix_bits) : 0;
    uint64_t count = unpacker.Get(32);
    if (count > total - out->size()) {
      return Status::Corruption("prefix-group count exceeds declared total");
    }
    if (count > unpacker.bits_remaining() / suffix_bits) {
      return Status::Corruption("prefix-group count exceeds payload");
    }
    for (uint64_t k = 0; k < count; ++k) {
      out->push_back(Reassemble(prefix, unpacker.Get(suffix_bits),
                                suffix_bits));
    }
  }
  in->Skip(unpacker.bytes_consumed());
  return Status::OK();
}

uint64_t PrefixGroupEncodedSize(std::vector<uint64_t> values,
                                uint32_t width_bits, uint32_t prefix_bits) {
  CheckParams(width_bits, prefix_bits);
  std::sort(values.begin(), values.end());
  const uint32_t suffix_bits = width_bits - prefix_bits;
  uint64_t bits = 0;
  size_t i = 0;
  while (i < values.size()) {
    uint64_t prefix = PrefixOf(values[i], suffix_bits);
    size_t j = i;
    while (j < values.size() && PrefixOf(values[j], suffix_bits) == prefix) ++j;
    bits += prefix_bits + 32 + (j - i) * suffix_bits;
    i = j;
  }
  return Leb128Size(values.size()) + (bits + 7) / 8;
}

uint32_t BestPrefixBits(const std::vector<uint64_t>& values,
                        uint32_t width_bits) {
  uint32_t best = 0;
  uint64_t best_size = ~0ULL;
  for (uint32_t p = 0; p < width_bits; ++p) {
    uint64_t size = PrefixGroupEncodedSize(values, width_bits, p);
    if (size < best_size) {
      best_size = size;
      best = p;
    }
  }
  return best;
}

}  // namespace tj
