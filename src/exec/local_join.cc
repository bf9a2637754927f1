#include "exec/local_join.h"

#include <vector>

#include "common/bit_util.h"
#include "common/hash.h"
#include "exec/radix_sort.h"
#include "obs/trace.h"

namespace tj {

uint64_t MergeJoinSorted(const TupleBlock& r, const TupleBlock& s,
                         const JoinSink& sink) {
  TraceSpan span("kernel", "MergeJoinSorted",
                 static_cast<int64_t>(r.size() + s.size()));
  uint64_t output = 0;
  uint64_t i = 0, j = 0;
  const uint64_t nr = r.size(), ns = s.size();
  while (i < nr && j < ns) {
    uint64_t kr = r.Key(i);
    uint64_t ks = s.Key(j);
    if (kr < ks) {
      ++i;
    } else if (kr > ks) {
      ++j;
    } else {
      // Matching runs: one key group, the cartesian product of its rows.
      uint64_t i_end = i;
      while (i_end < nr && r.Key(i_end) == kr) ++i_end;
      uint64_t j_end = j;
      while (j_end < ns && s.Key(j_end) == kr) ++j_end;
      if (sink) sink(kr, r.Run(i, i_end), s.Run(j, j_end));
      output += (i_end - i) * (j_end - j);
      i = i_end;
      j = j_end;
    }
  }
  return output;
}

uint64_t SortMergeJoin(TupleBlock* r, TupleBlock* s, const JoinSink& sink,
                       ThreadPool* pool) {
  if (!IsSortedByKey(*r)) SortBlockByKey(r, pool);
  if (!IsSortedByKey(*s)) SortBlockByKey(s, pool);
  return MergeJoinSorted(*r, *s, sink);
}

uint64_t HashTableJoin(const TupleBlock& r, const TupleBlock& s,
                       const JoinSink& sink) {
  if (r.empty() || s.empty()) return 0;
  TraceSpan span("kernel", "HashTableJoin",
                 static_cast<int64_t>(r.size() + s.size()));
  // Open-addressing table of row indexes into r, chained by probing: equal
  // keys occupy consecutive probe positions.
  const uint64_t capacity = NextPowerOfTwo(r.size() * 2);
  const uint64_t mask = capacity - 1;
  constexpr uint32_t kEmpty = ~0u;
  std::vector<uint32_t> slots(capacity, kEmpty);
  TJ_CHECK_LT(r.size(), static_cast<uint64_t>(kEmpty));
  for (uint64_t row = 0; row < r.size(); ++row) {
    uint64_t pos = HashKey(r.Key(row)) & mask;
    while (slots[pos] != kEmpty) pos = (pos + 1) & mask;
    slots[pos] = static_cast<uint32_t>(row);
  }
  uint64_t output = 0;
  std::vector<uint32_t> matches;
  for (uint64_t row = 0; row < s.size(); ++row) {
    uint64_t key = s.Key(row);
    uint64_t pos = HashKey(key) & mask;
    matches.clear();
    while (slots[pos] != kEmpty) {
      if (r.Key(slots[pos]) == key) matches.push_back(slots[pos]);
      pos = (pos + 1) & mask;
    }
    if (matches.empty()) continue;
    if (sink) sink(key, r.Run(matches), s.Run(row, row + 1));
    output += matches.size();
  }
  return output;
}

JoinSink ChecksumSink(JoinChecksum* checksum, uint32_t width_r,
                      uint32_t width_s) {
  return JoinSink::ForGroups([checksum, width_r, width_s](
                                 uint64_t key, const PayloadRun& r,
                                 const PayloadRun& s) {
    TJ_CHECK(r.width == width_r && s.width == width_s);
    checksum->AccumulateGroup(key, r, s);
  });
}

JoinSink MaterializeSink(TupleBlock* out, JoinChecksum* checksum,
                         uint32_t width_r, uint32_t width_s) {
  TJ_CHECK_EQ(out->payload_width(), width_r + width_s);
  return JoinSink::ForGroups([out, checksum, width_r, width_s](
                                 uint64_t key, const PayloadRun& r,
                                 const PayloadRun& s) {
    TJ_CHECK(r.width == width_r && s.width == width_s);
    checksum->AccumulateGroup(key, r, s);
    out->AppendProduct(key, r, s);
  });
}

}  // namespace tj
