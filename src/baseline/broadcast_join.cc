#include "baseline/broadcast_join.h"

#include <vector>

#include "common/logging.h"
#include "exec/local_join.h"
#include "exec/radix_sort.h"
#include "net/fabric.h"

namespace tj {

Result<JoinResult> TryRunBroadcastJoin(const PartitionedTable& r,
                                       const PartitionedTable& s,
                                       const JoinConfig& config,
                                       Direction direction) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  const bool broadcast_r = direction == Direction::kRtoS;
  const PartitionedTable& moving = broadcast_r ? r : s;
  const PartitionedTable& fixed = broadcast_r ? s : r;
  const MessageType data_type =
      broadcast_r ? MessageType::kDataR : MessageType::kDataS;

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  std::vector<TupleBlock> moving_in(n, TupleBlock(moving.payload_width()));
  std::vector<TupleBlock> fixed_local(n, TupleBlock(fixed.payload_width()));
  JoinOutputs outputs(r, s, config);

  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "broadcast tuples", [&](uint32_t node) {
        const TupleBlock& block = moving.node(node);
        if (block.empty()) return Status::OK();
        ByteBuffer buf;
        block.SerializeRows(0, block.size(), config.key_bytes, &buf);
        for (uint32_t dst = 0; dst < n; ++dst) {
          // Self-delivery is a free local copy; remote copies are network.
          ByteBuffer copy = (dst + 1 == n) ? std::move(buf) : buf;
          fabric.Send(node, dst, data_type, std::move(copy));
        }
        return Status::OK();
      }));

  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "sort tuples", [&](uint32_t node) -> Status {
        TJ_RETURN_IF_ERROR(TryReceiveRows(&fabric, node, data_type,
                                          config.key_bytes, &moving_in[node]));
        SortBlockByKey(&moving_in[node], config.thread_pool);
        fixed_local[node] = fixed.node(node);
        SortBlockByKey(&fixed_local[node], config.thread_pool);
        return Status::OK();
      }));

  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join", [&](uint32_t node) {
        // The sink expects (key, payloadR, payloadS): keep R first.
        const TupleBlock& r_side =
            broadcast_r ? moving_in[node] : fixed_local[node];
        const TupleBlock& s_side =
            broadcast_r ? fixed_local[node] : moving_in[node];
        MergeJoinSorted(r_side, s_side, outputs.Sink(node));
        return Status::OK();
      }));
  return FinishJoin(broadcast_r ? "bj-r" : "bj-s", &fabric, &outputs);
}

}  // namespace tj
