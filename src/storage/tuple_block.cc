#include "storage/tuple_block.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"

namespace tj {

template <typename RowAt>
void TupleBlock::AppendSerialized(uint64_t count, RowAt row_at,
                                  uint32_t key_bytes, ByteBuffer* out) const {
  TJ_CHECK(key_bytes >= 1 && key_bytes <= 8) << "key_bytes=" << key_bytes;
  const uint32_t row_bytes = key_bytes + payload_width_;
  const size_t first = out->size();
  const size_t bytes = count * row_bytes;
  // 8 bytes of slack take the last key's whole-word store; each payload
  // copy overwrites the previous key word's spill, and the trim drops the
  // last one.
  out->resize(first + bytes + 8);
  uint8_t* p = out->data() + first;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t row = row_at(i);
    StoreLe64(p, keys_[row]);
    if (payload_width_ > 0) {
      std::memcpy(p + key_bytes, payloads_.data() + row * payload_width_,
                  payload_width_);
    }
    p += row_bytes;
  }
  out->resize(first + bytes);
}

void TupleBlock::SerializeRows(uint64_t begin, uint64_t end, uint32_t key_bytes,
                               ByteBuffer* out) const {
  TJ_CHECK_LE(begin, end);
  TJ_CHECK_LE(end, size());
  AppendSerialized(
      end - begin, [begin](uint64_t i) { return begin + i; }, key_bytes, out);
}

void TupleBlock::SerializeRowsIndexed(std::span<const uint32_t> rows,
                                      uint32_t key_bytes,
                                      ByteBuffer* out) const {
  TJ_CHECK(rows.empty() || *std::max_element(rows.begin(), rows.end()) <
                               size())
      << "row index past the block";
  AppendSerialized(
      rows.size(), [rows](uint64_t i) { return rows[i]; }, key_bytes, out);
}

void TupleBlock::AppendProduct(uint64_t key, const PayloadRun& r,
                               const PayloadRun& s) {
  TJ_CHECK_EQ(payload_width_, r.width + s.width);
  const uint64_t rows = r.size * s.size;
  keys_.insert(keys_.end(), rows, key);
  if (payload_width_ == 0) return;
  const uint64_t first = payloads_.size();
  payloads_.resize(first + rows * payload_width_);
  uint8_t* out = payloads_.data() + first;
  for (uint64_t i = 0; i < r.size; ++i) {
    for (uint64_t j = 0; j < s.size; ++j) {
      if (r.width > 0) std::memcpy(out, r[i], r.width);
      if (s.width > 0) std::memcpy(out + r.width, s[j], s.width);
      out += payload_width_;
    }
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
  TJ_CHECK_LE(key_bytes, 8u);
  const uint32_t row_bytes = key_bytes + payload_width_;
  TJ_CHECK_GT(row_bytes, 0u);
  if (in->remaining() % row_bytes != 0) {
    return Status::Corruption("tuple payload not a multiple of row size");
  }
  const uint64_t first = size();
  const uint64_t rows = in->remaining() / row_bytes;
  // Geometric growth: streaming callers append one small chunk at a time,
  // and an exact reserve would re-copy the whole block on every call.
  if (first + rows > keys_.capacity()) {
    Reserve(std::max<uint64_t>(first + rows, 2 * keys_.capacity()));
  }
  keys_.resize(first + rows);
  payloads_.resize((first + rows) * payload_width_);
  const uint8_t* p = in->Current();
  const uint8_t* end = p + in->remaining();
  for (uint64_t row = first; row < first + rows; ++row) {
    keys_[row] = LoadLeField(p, end - p, key_bytes);
    if (payload_width_ > 0) {
      std::memcpy(payloads_.data() + row * payload_width_, p + key_bytes,
                  payload_width_);
    }
    p += row_bytes;
  }
  in->Skip(rows * row_bytes);
  return Status::OK();
}

TupleBlock TupleBlock::Gather(std::span<const uint32_t> rows,
                              ThreadPool* pool) const {
  TupleBlock out(payload_width_);
  const uint64_t n = rows.size();
  out.Resize(n);
  uint64_t* out_keys = out.keys_.data();
  uint8_t* out_payloads = out.payloads_.data();
  auto gather = [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      out_keys[i] = keys_[rows[i]];
      if (payload_width_ > 0) {
        std::memcpy(
            out_payloads + i * payload_width_,
            payloads_.data() + static_cast<uint64_t>(rows[i]) * payload_width_,
            payload_width_);
      }
    }
  };
  constexpr uint64_t kMinChunkRows = 1 << 14;
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
  return out;
}

}  // namespace tj
