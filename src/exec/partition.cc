#include "exec/partition.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/radix_sort.h"
#include "obs/trace.h"

namespace tj {

namespace {

// Chunking grain for the parallel passes. Chunk boundaries never affect the
// output (the prefix-sum cursors are chunk-major, so the layout is stable
// regardless of how the input is carved up) — only load balance.
constexpr uint64_t kMinChunkRows = 1 << 13;

// Software write-combining: tuples are staged in small per-partition
// buffers and flushed as contiguous runs, so the scatter's random writes
// hit the staging buffer (cache-resident) instead of num_parts distant
// output cursors per tuple.
constexpr uint64_t kSwcBufferBytes = 2048;

uint64_t NumChunks(uint64_t n, ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2 * kMinChunkRows) {
    return 1;
  }
  return std::min<uint64_t>(pool->num_threads() * 4, n / kMinChunkRows);
}

void RunChunks(uint64_t chunks, ThreadPool* pool,
               const std::function<void(uint64_t)>& fn) {
  if (chunks <= 1 || pool == nullptr) {
    for (uint64_t c = 0; c < chunks; ++c) fn(c);
  } else {
    pool->ParallelFor(chunks, [&fn](size_t c) { fn(c); });
  }
}

// Pass 1 + prefix sums, shared by both partitioners. Fills `bounds`
// (num_parts + 1), `cursors` (chunks x num_parts write positions) and
// `part_ids` (per-row partition, so the scatter pass never re-hashes —
// HashPartition's modulo is an integer division, twice the cost of
// re-reading 4 sequential bytes per row).
void BuildHistograms(const TupleBlock& block, uint32_t num_parts,
                     uint64_t chunks, uint64_t rows_per_chunk,
                     ThreadPool* pool, std::vector<uint64_t>* bounds,
                     std::vector<uint64_t>* cursors,
                     std::vector<uint32_t>* part_ids) {
  const uint64_t n = block.size();
  std::vector<uint64_t>& counts = *cursors;  // reused in place as cursors
  counts.assign(chunks * num_parts, 0);
  part_ids->resize(n);
  uint32_t* ids = part_ids->data();
  RunChunks(chunks, pool, [&](uint64_t c) {
    const uint64_t begin = c * rows_per_chunk;
    const uint64_t end = std::min(n, begin + rows_per_chunk);
    uint64_t* hist = counts.data() + c * num_parts;
    for (uint64_t row = begin; row < end; ++row) {
      const uint32_t p = HashPartition(block.Key(row), num_parts);
      ids[row] = p;
      ++hist[p];
    }
  });

  // Exclusive prefix sum in (partition, chunk) order: partition p's run
  // starts at bounds[p]; within it, chunk c writes after chunks < c.
  bounds->assign(num_parts + 1, 0);
  uint64_t pos = 0;
  for (uint32_t p = 0; p < num_parts; ++p) {
    (*bounds)[p] = pos;
    for (uint64_t c = 0; c < chunks; ++c) {
      uint64_t cnt = counts[c * num_parts + p];
      counts[c * num_parts + p] = pos;
      pos += cnt;
    }
  }
  (*bounds)[num_parts] = pos;
}

}  // namespace

Result<PartitionLayout> TryRadixPartition(const TupleBlock& block,
                                          uint32_t num_parts,
                                          ThreadPool* pool) {
  if (num_parts == 0) {
    return Status::InvalidArgument("partition count must be positive");
  }
  const uint64_t n = block.size();
  const uint32_t width = block.payload_width();
  TraceSpan span("kernel", "TryRadixPartition", static_cast<int64_t>(n));

  PartitionLayout layout;
  layout.tuples = TupleBlock(width);
  if (n == 0) {
    layout.bounds.assign(num_parts + 1, 0);
    return layout;
  }

  const uint64_t chunks = NumChunks(n, pool);
  const uint64_t rows_per_chunk = (n + chunks - 1) / chunks;
  std::vector<uint64_t> cursors;
  std::vector<uint32_t> part_ids;
  BuildHistograms(block, num_parts, chunks, rows_per_chunk, pool,
                  &layout.bounds, &cursors, &part_ids);

  layout.tuples.Resize(n);
  uint64_t* out_keys = layout.tuples.MutableKeys();
  uint8_t* out_pay = layout.tuples.MutablePayloads();
  const uint64_t row_bytes = 8 + width;
  const uint64_t buf_rows = std::max<uint64_t>(1, kSwcBufferBytes / row_bytes);

  RunChunks(chunks, pool, [&](uint64_t c) {
    const uint64_t begin = c * rows_per_chunk;
    const uint64_t end = std::min(n, begin + rows_per_chunk);
    uint64_t* cursor = cursors.data() + c * num_parts;

    // Per-chunk write-combining buffers: buf_rows staged tuples per
    // partition, flushed as one contiguous run.
    std::vector<uint64_t> buf_keys(num_parts * buf_rows);
    std::vector<uint8_t> buf_pay(width > 0 ? num_parts * buf_rows * width : 0);
    std::vector<uint32_t> buf_fill(num_parts, 0);

    auto flush = [&](uint32_t p) {
      const uint32_t cnt = buf_fill[p];
      if (cnt == 0) return;
      uint64_t dst = cursor[p];
      std::memcpy(out_keys + dst, buf_keys.data() + p * buf_rows,
                  cnt * sizeof(uint64_t));
      if (width > 0) {
        std::memcpy(out_pay + dst * width, buf_pay.data() + p * buf_rows * width,
                    static_cast<uint64_t>(cnt) * width);
      }
      cursor[p] = dst + cnt;
      buf_fill[p] = 0;
    };

    for (uint64_t row = begin; row < end; ++row) {
      const uint64_t key = block.Key(row);
      const uint32_t p = part_ids[row];
      uint32_t fill = buf_fill[p];
      buf_keys[p * buf_rows + fill] = key;
      if (width > 0) {
        std::memcpy(buf_pay.data() + (p * buf_rows + fill) * width,
                    block.Payload(row), width);
      }
      buf_fill[p] = fill + 1;
      if (fill + 1 == buf_rows) flush(p);
    }
    for (uint32_t p = 0; p < num_parts; ++p) flush(p);
  });
  return layout;
}

Result<PartitionLayout> TrySortedRadixPartition(const TupleBlock& block,
                                                uint32_t num_parts,
                                                ThreadPool* pool) {
  if (num_parts == 0) {
    return Status::InvalidArgument("partition count must be positive");
  }
  std::vector<uint32_t> rows;
  std::vector<uint32_t> parts;
  {
    TraceSpan span("kernel", "SortBlockByKey",
                   static_cast<int64_t>(block.size()));
    KeyOrder order = SortKeyOrder(block, pool);
    rows = std::move(order.rows);
    parts.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      parts[i] = HashPartition(order.keys[i], num_parts);
    }
  }
  TraceSpan span("kernel", "TryRadixPartition",
                 static_cast<int64_t>(block.size()));
  // A stable counting sort of the sorted rows by partition keeps every
  // partition's rows in key order.
  PartitionLayout layout;
  layout.bounds.assign(num_parts + 1, 0);
  for (uint32_t p : parts) ++layout.bounds[p + 1];
  for (uint32_t p = 0; p < num_parts; ++p) {
    layout.bounds[p + 1] += layout.bounds[p];
  }
  std::vector<uint64_t> cursor(layout.bounds.begin(), layout.bounds.end() - 1);
  std::vector<uint32_t> grouped(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    grouped[cursor[parts[i]]++] = rows[i];
  }
  std::vector<uint32_t>().swap(rows);
  std::vector<uint32_t>().swap(parts);
  layout.tuples = block.Gather(grouped, pool);
  return layout;
}

Result<KeyPartitionLayout> TryRadixPartitionKeys(const TupleBlock& block,
                                                 uint32_t num_parts,
                                                 ThreadPool* pool) {
  if (num_parts == 0) {
    return Status::InvalidArgument("partition count must be positive");
  }
  const uint64_t n = block.size();
  if (n >= (1ULL << 32)) {
    return Status::OutOfRange("block too large for 32-bit row ids");
  }
  TraceSpan span("kernel", "TryRadixPartitionKeys", static_cast<int64_t>(n));

  KeyPartitionLayout layout;
  if (n == 0) {
    layout.bounds.assign(num_parts + 1, 0);
    return layout;
  }

  const uint64_t chunks = NumChunks(n, pool);
  const uint64_t rows_per_chunk = (n + chunks - 1) / chunks;
  std::vector<uint64_t> cursors;
  std::vector<uint32_t> part_ids;
  BuildHistograms(block, num_parts, chunks, rows_per_chunk, pool,
                  &layout.bounds, &cursors, &part_ids);

  layout.keys.resize(n);
  layout.row_ids.resize(n);
  RunChunks(chunks, pool, [&](uint64_t c) {
    const uint64_t begin = c * rows_per_chunk;
    const uint64_t end = std::min(n, begin + rows_per_chunk);
    uint64_t* cursor = cursors.data() + c * num_parts;
    for (uint64_t row = begin; row < end; ++row) {
      const uint64_t key = block.Key(row);
      const uint32_t p = part_ids[row];
      const uint64_t dst = cursor[p]++;
      layout.keys[dst] = key;
      layout.row_ids[dst] = static_cast<uint32_t>(row);
    }
  });
  return layout;
}

}  // namespace tj
