#include "storage/tuple_block.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace tj {

void TupleBlock::SerializeRows(uint64_t begin, uint64_t end, uint32_t key_bytes,
                               ByteBuffer* out) const {
  TJ_CHECK_LE(begin, end);
  TJ_CHECK_LE(end, size());
  ByteWriter writer(out);
  for (uint64_t row = begin; row < end; ++row) {
    writer.PutUint(keys_[row], key_bytes);
    if (payload_width_ > 0) writer.PutBytes(Payload(row), payload_width_);
  }
}

void TupleBlock::SerializeRowsIndexed(const std::vector<uint32_t>& rows,
                                      uint32_t key_bytes,
                                      ByteBuffer* out) const {
  ByteWriter writer(out);
  for (uint32_t row : rows) {
    TJ_CHECK_LT(row, size());
    writer.PutUint(keys_[row], key_bytes);
    if (payload_width_ > 0) writer.PutBytes(Payload(row), payload_width_);
  }
}

uint64_t TupleBlock::Filter(const std::function<bool(uint64_t)>& keep) {
  uint64_t out = 0;
  for (uint64_t row = 0; row < size(); ++row) {
    if (!keep(row)) continue;
    if (out != row) {
      keys_[out] = keys_[row];
      if (payload_width_ > 0) {
        std::memmove(payloads_.data() + out * payload_width_,
                     payloads_.data() + row * payload_width_, payload_width_);
      }
    }
    ++out;
  }
  uint64_t removed = size() - out;
  keys_.resize(out);
  payloads_.resize(out * payload_width_);
  return removed;
}

std::pair<uint64_t, uint64_t> TupleBlock::EqualRange(uint64_t key) const {
  auto lo = std::lower_bound(keys_.begin(), keys_.end(), key);
  auto hi = std::upper_bound(lo, keys_.end(), key);
  return {static_cast<uint64_t>(lo - keys_.begin()),
          static_cast<uint64_t>(hi - keys_.begin())};
}

Status TupleBlock::TryDeserializeRows(ByteReader* in, uint32_t key_bytes) {
  const uint32_t row_bytes = key_bytes + payload_width_;
  TJ_CHECK_GT(row_bytes, 0u);
  if (in->remaining() % row_bytes != 0) {
    return Status::Corruption("tuple payload not a multiple of row size");
  }
  uint64_t rows = in->remaining() / row_bytes;
  Reserve(size() + rows);
  for (uint64_t i = 0; i < rows; ++i) {
    uint64_t key = in->GetUint(key_bytes);
    keys_.push_back(key);
    if (payload_width_ > 0) {
      size_t old = payloads_.size();
      payloads_.resize(old + payload_width_);
      in->GetBytes(payloads_.data() + old, payload_width_);
    }
  }
  return Status::OK();
}

void TupleBlock::Permute(const std::vector<uint32_t>& perm, ThreadPool* pool) {
  TJ_CHECK_EQ(perm.size(), keys_.size());
  std::vector<uint64_t> new_keys(keys_.size());
  std::vector<uint8_t> new_payloads(payloads_.size());
  auto gather = [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      new_keys[i] = keys_[perm[i]];
      if (payload_width_ > 0) {
        std::memcpy(
            new_payloads.data() + i * payload_width_,
            payloads_.data() + static_cast<uint64_t>(perm[i]) * payload_width_,
            payload_width_);
      }
    }
  };
  constexpr uint64_t kMinChunkRows = 1 << 14;
  const uint64_t n = perm.size();
  if (pool == nullptr || n < 2 * kMinChunkRows) {
    gather(0, n);
  } else {
    const uint64_t chunks =
        std::min<uint64_t>(pool->num_threads() * 4, n / kMinChunkRows);
    const uint64_t per = (n + chunks - 1) / chunks;
    pool->ParallelFor(chunks, [&](size_t c) {
      uint64_t begin = c * per;
      gather(begin, std::min(n, begin + per));
    });
  }
  keys_ = std::move(new_keys);
  payloads_ = std::move(new_payloads);
}

}  // namespace tj
