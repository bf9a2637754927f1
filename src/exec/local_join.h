// Node-local join machinery: sort-merge join and hash-table join.
//
// After an algorithm has routed tuples, every node joins its local R block
// against its local S block. The paper uses sort-merge join (MSB radix
// sort); a linear-probing hash join is provided as an alternative and for
// cross-checking results.
#ifndef TJ_EXEC_LOCAL_JOIN_H_
#define TJ_EXEC_LOCAL_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "storage/table.h"
#include "storage/tuple_block.h"

namespace tj {

/// Receives a join's output one key group at a time: the key, the run of R
/// payloads and the run of S payloads that carry it. The group stands for
/// its |R|·|S| output tuples <key, r[i], s[j]>, the cartesian product the
/// paper's per-key analysis treats as one unit.
///
/// A per-pair callable fn(key, payload_r, payload_s) is a valid sink too:
/// its group entry point calls fn once per pair, R-major. A default or null
/// sink receives nothing; the joins then only count.
class JoinSink {
 public:
  using GroupFn = std::function<void(uint64_t key, const PayloadRun& r,
                                     const PayloadRun& s)>;

  JoinSink() = default;
  JoinSink(std::nullptr_t) {}

  template <typename PairFn,
            typename = std::enable_if_t<std::is_invocable_v<
                PairFn&, uint64_t, const uint8_t*, const uint8_t*>>>
  JoinSink(PairFn pair)
      : group_([pair = std::move(pair)](uint64_t key, const PayloadRun& r,
                                        const PayloadRun& s) mutable {
          for (uint64_t i = 0; i < r.size; ++i) {
            for (uint64_t j = 0; j < s.size; ++j) pair(key, r[i], s[j]);
          }
        }) {}

  /// A sink that takes whole key groups.
  static JoinSink ForGroups(GroupFn group) {
    JoinSink sink;
    sink.group_ = std::move(group);
    return sink;
  }

  explicit operator bool() const { return static_cast<bool>(group_); }

  /// Delivers one key group. Precondition: the sink is not null.
  void operator()(uint64_t key, const PayloadRun& r,
                  const PayloadRun& s) const {
    group_(key, r, s);
  }

 private:
  GroupFn group_;
};

/// Sort-merge join of two blocks (sorts them in place if needed, in
/// parallel when given a pool), handing `sink` each key's run of R rows
/// and run of S rows as one group. Returns the output cardinality.
uint64_t SortMergeJoin(TupleBlock* r, TupleBlock* s, const JoinSink& sink,
                       class ThreadPool* pool = nullptr);

/// Merge join over already-sorted blocks. Precondition: both sorted by key.
uint64_t MergeJoinSorted(const TupleBlock& r, const TupleBlock& s,
                         const JoinSink& sink);

/// Hash join: builds a linear-probing table on `r`, probes with `s`. Each
/// probing S row and its matching R rows form one group.
uint64_t HashTableJoin(const TupleBlock& r, const TupleBlock& s,
                       const JoinSink& sink);

/// Sink that accumulates the order-independent output checksum, one
/// JoinChecksum::AccumulateGroup per key group. The runs it receives must
/// be `width_r` and `width_s` bytes wide.
JoinSink ChecksumSink(JoinChecksum* checksum, uint32_t width_r,
                      uint32_t width_s);

/// Sink that both checksums and materializes: appends one
/// <key | payloadR | payloadS> row to `out` per joined pair, R-major within
/// each group.
/// Precondition: out->payload_width() == width_r + width_s.
JoinSink MaterializeSink(TupleBlock* out, JoinChecksum* checksum,
                         uint32_t width_r, uint32_t width_s);

}  // namespace tj

#endif  // TJ_EXEC_LOCAL_JOIN_H_
