#include "baseline/hash_join.h"

#include <vector>

#include "common/logging.h"
#include "exec/local_join.h"
#include "exec/partition.h"
#include "exec/radix_sort.h"
#include "net/fabric.h"

namespace tj {

Result<JoinResult> TryRunHashJoin(const PartitionedTable& r,
                                  const PartitionedTable& s,
                                  const JoinConfig& config) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  std::vector<TupleBlock> r_in(n, TupleBlock(r.payload_width()));
  std::vector<TupleBlock> s_in(n, TupleBlock(s.payload_width()));
  JoinOutputs outputs(r, s, config);

  // Partition + transfer, one table at a time (paper Table 3 rows 1-4).
  // The radix partitioner materializes contiguous per-partition runs
  // (stable, so the serialized streams are byte-identical to row-indexed
  // serialization in input order) and each run ships with one straight
  // SerializeRows scan.
  auto partition_and_send = [&](const PartitionedTable& table,
                                MessageType type, uint32_t node) -> Status {
    Result<PartitionLayout> layout =
        TryRadixPartition(table.node(node), n, config.thread_pool);
    TJ_RETURN_IF_ERROR(layout.status());
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (layout->Size(dst) == 0) continue;
      ByteBuffer buf;
      layout->tuples.SerializeRows(layout->Begin(dst), layout->End(dst),
                                   config.key_bytes, &buf);
      fabric.Send(node, dst, type, std::move(buf));
    }
    return Status::OK();
  };
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "hash partition & transfer R tuples", [&](uint32_t node) {
        return partition_and_send(r, MessageType::kDataR, node);
      }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "hash partition & transfer S tuples", [&](uint32_t node) {
        return partition_and_send(s, MessageType::kDataS, node);
      }));

  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "sort received R tuples", [&](uint32_t node) -> Status {
        TJ_RETURN_IF_ERROR(TryReceiveRows(&fabric, node, MessageType::kDataR,
                                          config.key_bytes, &r_in[node]));
        SortBlockByKey(&r_in[node], config.thread_pool);
        return Status::OK();
      }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "sort received S tuples", [&](uint32_t node) -> Status {
        TJ_RETURN_IF_ERROR(TryReceiveRows(&fabric, node, MessageType::kDataS,
                                          config.key_bytes, &s_in[node]));
        SortBlockByKey(&s_in[node], config.thread_pool);
        return Status::OK();
      }));

  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join", [&](uint32_t node) {
        MergeJoinSorted(r_in[node], s_in[node], outputs.Sink(node));
        return Status::OK();
      }));
  return FinishJoin("hj", &fabric, &outputs);
}

}  // namespace tj
