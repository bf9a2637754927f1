// Bloom filter for semi-join filtering (paper Section 3.3).
//
// "When join operations are coupled with selections, we can prune tuples
// both individually per table and across tables. To that end, databases use
// semi-join implemented using Bloom filters, which are optimized towards
// network traffic."
#ifndef TJ_FILTER_BLOOM_H_
#define TJ_FILTER_BLOOM_H_

#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace tj {

class BloomFilter {
 public:
  /// Sizes the filter for `expected_keys` keys at `bits_per_key` bits each
  /// (the paper's per-qualifying-tuple filter length wbf). num_hashes
  /// defaults to the optimum ln2 · bits_per_key.
  BloomFilter(uint64_t expected_keys, uint32_t bits_per_key,
              uint32_t num_hashes = 0);

  void Add(uint64_t key);
  bool MayContain(uint64_t key) const;

  /// Filter payload size in bytes (what a broadcast transfers).
  uint64_t SizeBytes() const { return bits_.size() * 8; }
  uint64_t num_bits() const { return num_bits_; }
  uint32_t num_hashes() const { return num_hashes_; }

  /// Expected false-positive rate after `inserted` keys.
  double TheoreticalFpRate(uint64_t inserted) const;

  /// Serialization for the filter-broadcast phase:
  ///   <num_bits : LEB128> <num_hashes : LEB128> <words : num_bits / 8>
  void Serialize(ByteBuffer* out) const;
  /// Decodes one serialized filter at the reader's cursor. A truncated
  /// varint, a num_bits that is zero or not a multiple of 64, a num_hashes
  /// of zero (or wider than 32 bits), or fewer word bytes than num_bits / 8
  /// returns Status::Corruption.
  static Result<BloomFilter> TryDeserialize(ByteReader* in);

 private:
  BloomFilter() = default;

  uint64_t num_bits_ = 0;
  uint32_t num_hashes_ = 1;
  std::vector<uint64_t> bits_;
};

}  // namespace tj

#endif  // TJ_FILTER_BLOOM_H_
