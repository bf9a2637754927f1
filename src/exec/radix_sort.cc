#include "exec/radix_sort.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/trace.h"

namespace tj {

namespace {

constexpr uint64_t kInsertionSortThreshold = 48;
// A range at least this large histograms/scatters chunk-parallel and fans
// its bucket recursion out across the pool. Doubles as the skew guard: a
// heavy-hitter bucket above this size re-enters the parallel pass instead
// of serializing on one thread.
constexpr uint64_t kParallelSortThreshold = 1 << 15;
constexpr uint64_t kMinChunkRows = 1 << 13;

inline uint32_t Digit(uint64_t key, int shift) {
  return static_cast<uint32_t>(key >> shift) & 0xff;
}

// Stable: shifts only while strictly greater. With kHasValues false the
// value array is ignored (keys-only sort) and may be null.
template <bool kHasValues>
void InsertionSort(uint64_t* keys, uint32_t* values, uint64_t n) {
  for (uint64_t i = 1; i < n; ++i) {
    uint64_t k = keys[i];
    uint32_t v = kHasValues ? values[i] : 0;
    uint64_t j = i;
    while (j > 0 && keys[j - 1] > k) {
      keys[j] = keys[j - 1];
      if constexpr (kHasValues) values[j] = values[j - 1];
      --j;
    }
    keys[j] = k;
    if constexpr (kHasValues) values[j] = v;
  }
}

// Stable MSD radix sort of the `n` pairs currently held in (k, v), on the
// byte at `shift` and all bytes below. (ak, av) is equal-sized scratch.
// `k_is_final` says whether (k, v) is the caller-visible output range; the
// sorted pairs always end up in the final range. With kHasValues false, v
// and av are unused (keys-only sort, half the scatter bandwidth).
template <bool kHasValues>
void StableMsdSort(uint64_t* k, uint32_t* v, uint64_t* ak, uint32_t* av,
                   uint64_t n, int shift, bool k_is_final, ThreadPool* pool) {
  if (n <= kInsertionSortThreshold || shift < 0) {
    // shift < 0 means every byte was scattered already: the range holds one
    // repeated key and is trivially sorted.
    if (n > 1 && shift >= 0) InsertionSort<kHasValues>(k, v, n);
    if (!k_is_final) {
      std::memcpy(ak, k, n * sizeof(uint64_t));
      if constexpr (kHasValues) std::memcpy(av, v, n * sizeof(uint32_t));
    }
    return;
  }

  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && n >= kParallelSortThreshold;
  const uint64_t chunks =
      parallel ? std::min<uint64_t>(pool->num_threads() * 4, n / kMinChunkRows)
               : 1;
  const uint64_t rows_per_chunk = (n + chunks - 1) / chunks;

  // Pass 1: per-chunk digit histograms.
  std::vector<uint64_t> counts(chunks * 256, 0);
  auto histogram = [&](uint64_t c) {
    const uint64_t begin = c * rows_per_chunk;
    const uint64_t end = std::min(n, begin + rows_per_chunk);
    uint64_t* hist = counts.data() + c * 256;
    for (uint64_t i = begin; i < end; ++i) ++hist[Digit(k[i], shift)];
  };
  if (parallel) {
    pool->ParallelFor(chunks, [&](size_t c) { histogram(c); });
  } else {
    histogram(0);
  }

  // Bucket starts + chunk-major write cursors (stability: chunk c writes
  // into bucket d after chunks < c).
  uint64_t starts[257];
  uint64_t pos = 0;
  for (int d = 0; d < 256; ++d) {
    starts[d] = pos;
    for (uint64_t c = 0; c < chunks; ++c) {
      uint64_t cnt = counts[c * 256 + d];
      counts[c * 256 + d] = pos;
      pos += cnt;
    }
  }
  starts[256] = n;

  // Degenerate histogram (all n pairs share this byte — e.g. one dominant
  // key): skip the scatter and move straight to the next byte.
  uint64_t max_bucket = 0;
  for (int d = 0; d < 256; ++d) {
    max_bucket = std::max(max_bucket, starts[d + 1] - starts[d]);
  }
  if (max_bucket == n) {
    StableMsdSort<kHasValues>(k, v, ak, av, n, shift - 8, k_is_final, pool);
    return;
  }

  // Pass 2: stable scatter (k, v) -> (ak, av).
  auto scatter = [&](uint64_t c) {
    const uint64_t begin = c * rows_per_chunk;
    const uint64_t end = std::min(n, begin + rows_per_chunk);
    uint64_t* cursor = counts.data() + c * 256;
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t dst = cursor[Digit(k[i], shift)]++;
      ak[dst] = k[i];
      if constexpr (kHasValues) av[dst] = v[i];
    }
  };
  if (parallel) {
    pool->ParallelFor(chunks, [&](size_t c) { scatter(c); });
  } else {
    scatter(0);
  }

  // Recurse into the buckets on the next byte; data now lives in (ak, av).
  auto recurse = [&](int d) {
    const uint64_t b = starts[d];
    const uint64_t cnt = starts[d + 1] - b;
    if (cnt == 0) return;
    StableMsdSort<kHasValues>(ak + b, kHasValues ? av + b : nullptr, k + b,
                              kHasValues ? v + b : nullptr, cnt, shift - 8,
                              !k_is_final, pool);
  };
  if (parallel) {
    pool->ParallelFor(256, [&](size_t d) { recurse(static_cast<int>(d)); });
  } else {
    for (int d = 0; d < 256; ++d) recurse(d);
  }
}

}  // namespace

void RadixSortPairs(std::vector<uint64_t>* keys, std::vector<uint32_t>* values,
                    ThreadPool* pool) {
  TJ_CHECK_EQ(keys->size(), values->size());
  const uint64_t n = keys->size();
  if (n < 2) return;
  TraceSpan span("kernel", "RadixSortPairs", static_cast<int64_t>(n));
  // Skip leading all-zero bytes: start at the highest byte actually used.
  uint64_t max_key = *std::max_element(keys->begin(), keys->end());
  int shift = 0;
  while (shift < 56 && (max_key >> (shift + 8)) != 0) shift += 8;
  std::vector<uint64_t> scratch_keys(n);
  std::vector<uint32_t> scratch_values(n);
  StableMsdSort<true>(keys->data(), values->data(), scratch_keys.data(),
                      scratch_values.data(), n, shift, /*k_is_final=*/true,
                      pool);
}

void RadixSortKeys(std::vector<uint64_t>* keys, ThreadPool* pool) {
  const uint64_t n = keys->size();
  if (n < 2) return;
  TraceSpan span("kernel", "RadixSortKeys", static_cast<int64_t>(n));
  uint64_t max_key = *std::max_element(keys->begin(), keys->end());
  int shift = 0;
  while (shift < 56 && (max_key >> (shift + 8)) != 0) shift += 8;
  std::vector<uint64_t> scratch(n);
  StableMsdSort<false>(keys->data(), nullptr, scratch.data(), nullptr, n,
                       shift, /*k_is_final=*/true, pool);
}

KeyOrder SortKeyOrder(const TupleBlock& block, ThreadPool* pool) {
  TJ_CHECK_LT(block.size(), uint64_t{1} << 32);
  KeyOrder order{block.keys(), std::vector<uint32_t>(block.size())};
  for (uint32_t i = 0; i < order.rows.size(); ++i) order.rows[i] = i;
  RadixSortPairs(&order.keys, &order.rows, pool);
  return order;
}

TupleBlock SortedCopyByKey(const TupleBlock& block, ThreadPool* pool) {
  if (block.size() < 2) return block;
  TraceSpan span("kernel", "SortBlockByKey",
                 static_cast<int64_t>(block.size()));
  // The sorted keys go before the gather allocates the output.
  const std::vector<uint32_t> rows = std::move(SortKeyOrder(block, pool).rows);
  return block.Gather(rows, pool);
}

void SortBlockByKey(TupleBlock* block, ThreadPool* pool) {
  if (block->size() < 2) return;
  *block = SortedCopyByKey(*block, pool);
}

bool IsSortedByKey(const TupleBlock& block) {
  const auto& keys = block.keys();
  for (uint64_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] > keys[i]) return false;
  }
  return true;
}

}  // namespace tj
