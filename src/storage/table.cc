#include "storage/table.h"

#include "common/hash.h"
#include "common/rng.h"

namespace tj {

PartitionedTable RekeyByPayloadField(const PartitionedTable& table,
                                     uint32_t offset, uint32_t bytes,
                                     std::string name) {
  TJ_CHECK_LE(bytes, 8u);
  TJ_CHECK_LE(offset + bytes, table.payload_width());
  PartitionedTable out(std::move(name), table.num_nodes(),
                       table.payload_width());
  for (uint32_t node = 0; node < table.num_nodes(); ++node) {
    const TupleBlock& block = table.node(node);
    out.node(node).Reserve(block.size());
    for (uint64_t row = 0; row < block.size(); ++row) {
      uint64_t key = 0;
      const uint8_t* p = block.Payload(row) + offset;
      for (uint32_t i = 0; i < bytes; ++i) {
        key |= static_cast<uint64_t>(p[i]) << (8 * i);
      }
      out.node(node).Append(key, block.Payload(row));
    }
  }
  return out;
}

void SynthesizePayload(uint64_t table_seed, uint64_t key, uint64_t copy,
                       uint32_t width, uint8_t* payload) {
  uint64_t state = SplitMix64(table_seed ^ HashKey(key, 17) ^ (copy * 0xa55a5aa5ULL));
  for (uint32_t i = 0; i < width; i += 8) {
    state = SplitMix64(state);
    for (uint32_t b = 0; b < 8 && i + b < width; ++b) {
      payload[i + b] = static_cast<uint8_t>(state >> (8 * b));
    }
  }
}

void JoinChecksum::Accumulate(uint64_t key, const uint8_t* payload_r,
                              uint32_t width_r, const uint8_t* payload_s,
                              uint32_t width_s) {
  uint64_t h = HashKey(key, 3);
  h = HashMix64(h ^ HashBytes(payload_r, width_r, 5));
  h = HashMix64(h ^ HashBytes(payload_s, width_s, 7));
  ++count_;
  sum_ += h;
  xor_ ^= h;
}

void JoinChecksum::AccumulateProduct(uint64_t key, const PayloadRun& r,
                                     const PayloadRun& s) {
  // Each S payload's hash, kept across groups; one per thread, because
  // thread-pooled phases checksum different nodes' groups at once.
  thread_local std::vector<uint64_t> s_hash;
  s_hash.resize(s.size);
  for (uint64_t j = 0; j < s.size; ++j) s_hash[j] = HashBytes(s[j], s.width, 7);
  const uint64_t key_hash = HashKey(key, 3);
  uint64_t sum = 0, x = 0;
  for (uint64_t i = 0; i < r.size; ++i) {
    const uint64_t r_hash = HashMix64(key_hash ^ HashBytes(r[i], r.width, 5));
    for (uint64_t j = 0; j < s.size; ++j) {
      const uint64_t h = HashMix64(r_hash ^ s_hash[j]);
      sum += h;
      x ^= h;
    }
  }
  count_ += r.size * s.size;
  sum_ += sum;
  xor_ ^= x;
}

}  // namespace tj
