#include "filter/bloom.h"

#include <cmath>
#include <string>

#include "common/hash.h"
#include "common/logging.h"
#include "encoding/varint.h"

namespace tj {

BloomFilter::BloomFilter(uint64_t expected_keys, uint32_t bits_per_key,
                         uint32_t num_hashes) {
  TJ_CHECK_GT(bits_per_key, 0u);
  num_bits_ = std::max<uint64_t>(64, expected_keys * bits_per_key);
  num_bits_ = (num_bits_ + 63) / 64 * 64;
  bits_.assign(num_bits_ / 64, 0);
  if (num_hashes == 0) {
    num_hashes = static_cast<uint32_t>(bits_per_key * 0.693);
    if (num_hashes < 1) num_hashes = 1;
    if (num_hashes > 16) num_hashes = 16;
  }
  num_hashes_ = num_hashes;
}

void BloomFilter::Add(uint64_t key) {
  // Double hashing: h1 + i·h2 positions, the standard Kirsch-Mitzenmacher
  // construction.
  uint64_t h1 = HashKey(key, 101);
  uint64_t h2 = HashKey(key, 202) | 1;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + i * h2) % num_bits_;
    bits_[bit / 64] |= 1ULL << (bit % 64);
  }
}

bool BloomFilter::MayContain(uint64_t key) const {
  uint64_t h1 = HashKey(key, 101);
  uint64_t h2 = HashKey(key, 202) | 1;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + i * h2) % num_bits_;
    if ((bits_[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
  }
  return true;
}

double BloomFilter::TheoreticalFpRate(uint64_t inserted) const {
  double fill = 1.0 - std::exp(-static_cast<double>(num_hashes_) *
                               static_cast<double>(inserted) /
                               static_cast<double>(num_bits_));
  return std::pow(fill, num_hashes_);
}

void BloomFilter::Serialize(ByteBuffer* out) const {
  EncodeLeb128(num_bits_, out);
  EncodeLeb128(num_hashes_, out);
  ByteWriter writer(out);
  for (uint64_t word : bits_) writer.PutU64(word);
}

Result<BloomFilter> BloomFilter::TryDeserialize(ByteReader* in) {
  uint64_t num_bits = 0;
  uint64_t num_hashes = 0;
  TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &num_bits));
  TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &num_hashes));
  if (num_bits == 0 || num_bits % 64 != 0) {
    return Status::Corruption("bloom filter size " + std::to_string(num_bits) +
                              " is not a positive multiple of 64 bits");
  }
  if (num_hashes == 0 || num_hashes > UINT32_MAX) {
    return Status::Corruption("bloom filter hash count " +
                              std::to_string(num_hashes) + " is out of range");
  }
  // Checked before allocating, so a bogus size cannot over-reserve.
  if (in->remaining() < num_bits / 8) {
    return Status::Corruption("bloom filter words truncated");
  }
  BloomFilter filter;
  filter.num_bits_ = num_bits;
  filter.num_hashes_ = static_cast<uint32_t>(num_hashes);
  filter.bits_.resize(num_bits / 64);
  for (auto& word : filter.bits_) word = in->GetU64();
  return filter;
}

}  // namespace tj
