// Partitioned tables and deterministic payload synthesis.
//
// A PartitionedTable is one join input split across the cluster's nodes —
// "tables R and S split arbitrarily across N nodes" (paper Section 2).
// Payload bytes are synthesized deterministically from (table seed, key,
// copy index) so any join's output can be verified by an order-independent
// checksum without keeping a reference copy.
#ifndef TJ_STORAGE_TABLE_H_
#define TJ_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/tuple_block.h"

namespace tj {

class PartitionedTable {
 public:
  PartitionedTable(std::string name, uint32_t num_nodes, uint32_t payload_width)
      : name_(std::move(name)) {
    partitions_.reserve(num_nodes);
    for (uint32_t i = 0; i < num_nodes; ++i) partitions_.emplace_back(payload_width);
  }

  const std::string& name() const { return name_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(partitions_.size()); }
  uint32_t payload_width() const { return partitions_[0].payload_width(); }

  TupleBlock& node(uint32_t i) { return partitions_[i]; }
  const TupleBlock& node(uint32_t i) const { return partitions_[i]; }

  /// Total rows across all nodes.
  uint64_t TotalRows() const {
    uint64_t total = 0;
    for (const auto& p : partitions_) total += p.size();
    return total;
  }

 private:
  std::string name_;
  std::vector<TupleBlock> partitions_;
};

/// Builds a new partitioned table whose join key is a little-endian integer
/// field embedded in each row's payload at [offset, offset + bytes).
/// Tuples stay on their nodes and keep their full payloads. This is how a
/// materialized join output is fed into the next join of a multi-join plan
/// (see the three-join chain in tests/integration/materialize_test.cc).
PartitionedTable RekeyByPayloadField(const PartitionedTable& table,
                                     uint32_t offset, uint32_t bytes,
                                     std::string name);

/// Fills `payload` (width bytes) deterministically from a seed triple. The
/// first 8 bytes embed a hash usable for verification; remaining bytes are a
/// pseudo-random stream.
void SynthesizePayload(uint64_t table_seed, uint64_t key, uint64_t copy,
                       uint32_t width, uint8_t* payload);

/// Order-independent fingerprint of a set of joined output tuples.
/// Accumulate() may be called in any order and from partial results;
/// Merge() combines per-node accumulators.
class JoinChecksum {
 public:
  /// Adds one output tuple <key, payloadR, payloadS>. This is the
  /// definition of the digest; AccumulateGroup is its fast path.
  void Accumulate(uint64_t key, const uint8_t* payload_r, uint32_t width_r,
                  const uint8_t* payload_s, uint32_t width_s);

  /// Adds one key group's |r|·|s| output tuples <key, r[i], s[j]>, exactly
  /// as Accumulate on every pair would. A pair's hash is
  /// Mix(Mix(HashKey(key) ^ hr) ^ hs), where hr hashes one R payload and hs
  /// one S payload, so each payload is hashed once per group and each pair
  /// costs one Mix. A 1x1 group (a key unique on both sides) has nothing to
  /// share and goes straight to Accumulate.
  void AccumulateGroup(uint64_t key, const PayloadRun& r, const PayloadRun& s) {
    if (r.size == 1 && s.size == 1) {
      Accumulate(key, r[0], r.width, s[0], s.width);
    } else {
      AccumulateProduct(key, r, s);
    }
  }

  void Merge(const JoinChecksum& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    xor_ ^= other.xor_;
  }

  uint64_t count() const { return count_; }
  uint64_t digest() const { return sum_ ^ (xor_ * 0x9e3779b97f4a7c15ULL); }

  bool operator==(const JoinChecksum& other) const {
    return count_ == other.count_ && sum_ == other.sum_ && xor_ == other.xor_;
  }

 private:
  void AccumulateProduct(uint64_t key, const PayloadRun& r,
                         const PayloadRun& s);

  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t xor_ = 0;
};

}  // namespace tj

#endif  // TJ_STORAGE_TABLE_H_
