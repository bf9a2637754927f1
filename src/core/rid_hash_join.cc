#include "core/rid_hash_join.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/local_join.h"
#include "exec/partition.h"
#include "exec/radix_sort.h"
#include "net/fabric.h"

namespace tj {

namespace {

/// A key observed by the hash node: where it lives and its position in the
/// (src -> hash node) key stream, which doubles as the implicit rid.
struct KeyRef {
  uint64_t key;
  uint32_t node;
  uint32_t stream_pos;
};

}  // namespace

Result<JoinResult> TryRunRidHashJoin(const PartitionedTable& r,
                                     const PartitionedTable& s,
                                     const JoinConfig& config,
                                     uint32_t rid_bytes) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  // The join result migrates to the wider side; the narrower side travels.
  const bool exec_on_r = r.payload_width() >= s.payload_width();
  const PartitionedTable& exec_table = exec_on_r ? r : s;
  const PartitionedTable& moving_table = exec_on_r ? s : r;
  const MessageType exec_rid_type =
      exec_on_r ? MessageType::kRidR : MessageType::kRidS;
  const MessageType moving_rid_type =
      exec_on_r ? MessageType::kRidS : MessageType::kRidR;
  const MessageType moving_data_type =
      exec_on_r ? MessageType::kDataS : MessageType::kDataR;
  const MessageType exec_track =
      exec_on_r ? MessageType::kTrackR : MessageType::kTrackS;
  const MessageType moving_track =
      exec_on_r ? MessageType::kTrackS : MessageType::kTrackR;

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  // Per (source node, hash node): the local rows whose keys were sent, in
  // stream order — the receiver refers to them by position (implicit rids).
  std::vector<std::vector<std::vector<uint32_t>>> exec_streams(n),
      moving_streams(n);
  std::vector<std::vector<uint32_t>> exec_selected(n);  // rows to join, per node
  std::vector<TupleBlock> moving_in(n, TupleBlock(moving_table.payload_width()));
  JoinOutputs outputs(r, s, config);

  // Phase 1: ship both key columns, in row order, to the hash nodes.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "transfer key columns", [&](uint32_t node) {
    auto send_keys = [&](const TupleBlock& block, MessageType type,
                         std::vector<std::vector<uint32_t>>* streams)
        -> Status {
      // Radix-partition the key column into contiguous per-destination
      // runs; the stable layout keeps each stream in row order.
      Result<KeyPartitionLayout> layout =
          TryRadixPartitionKeys(block, n, config.thread_pool);
      TJ_RETURN_IF_ERROR(layout.status());
      streams->assign(n, {});
      for (uint32_t dst = 0; dst < n; ++dst) {
        if (layout->Size(dst) == 0) continue;
        (*streams)[dst].assign(layout->row_ids.begin() + layout->Begin(dst),
                               layout->row_ids.begin() + layout->End(dst));
        ByteBuffer buf;
        ByteWriter writer(&buf);
        for (uint64_t i = layout->Begin(dst); i < layout->End(dst); ++i) {
          writer.PutUint(layout->keys[i], config.key_bytes);
        }
        fabric.Send(node, dst, type, std::move(buf));
      }
      return Status::OK();
    };
    TJ_RETURN_IF_ERROR(
        send_keys(exec_table.node(node), exec_track, &exec_streams[node]));
    TJ_RETURN_IF_ERROR(send_keys(moving_table.node(node), moving_track,
                                 &moving_streams[node]));
    return Status::OK();
  }));

  // Phase 2: join the key columns; send rids home.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "join keys & return rids", [&](uint32_t node) -> Status {
    auto collect = [&](MessageType type,
                       std::vector<KeyRef>* refs) -> Status {
      for (const auto& msg : fabric.TakeInbox(node, type)) {
        ByteReader reader(msg.data);
        if (reader.remaining() % config.key_bytes != 0) {
          return Status::Corruption("key stream not a multiple of key size");
        }
        uint32_t pos = 0;
        while (!reader.Done()) {
          refs->push_back(
              KeyRef{reader.GetUint(config.key_bytes), msg.src, pos++});
        }
      }
      std::sort(refs->begin(), refs->end(),
                [](const KeyRef& a, const KeyRef& b) {
                  if (a.key != b.key) return a.key < b.key;
                  if (a.node != b.node) return a.node < b.node;
                  return a.stream_pos < b.stream_pos;
                });
      return Status::OK();
    };
    std::vector<KeyRef> exec_refs, moving_refs;
    TJ_RETURN_IF_ERROR(collect(exec_track, &exec_refs));
    TJ_RETURN_IF_ERROR(collect(moving_track, &moving_refs));

    // Per destination: rid lists for the exec side, (rid, exec node) pairs
    // for the moving side.
    std::vector<ByteBuffer> exec_out(n), moving_out(n);
    std::vector<ByteWriter> exec_writers, moving_writers;
    for (uint32_t d = 0; d < n; ++d) {
      exec_writers.emplace_back(&exec_out[d]);
      moving_writers.emplace_back(&moving_out[d]);
    }

    size_t i = 0, j = 0;
    while (i < exec_refs.size() && j < moving_refs.size()) {
      uint64_t ek = exec_refs[i].key, mk = moving_refs[j].key;
      if (ek < mk) {
        ++i;
      } else if (mk < ek) {
        ++j;
      } else {
        size_t i_end = i;
        while (i_end < exec_refs.size() && exec_refs[i_end].key == ek) ++i_end;
        size_t j_end = j;
        while (j_end < moving_refs.size() && moving_refs[j_end].key == ek) {
          ++j_end;
        }
        // Exec rows learn they participate (one rid each).
        for (size_t a = i; a < i_end; ++a) {
          exec_writers[exec_refs[a].node].PutUint(exec_refs[a].stream_pos,
                                                  rid_bytes);
        }
        // Moving rows learn every distinct exec location for their key.
        for (size_t b = j; b < j_end; ++b) {
          uint32_t prev_exec_node = ~0u;
          for (size_t a = i; a < i_end; ++a) {
            if (exec_refs[a].node == prev_exec_node) continue;
            prev_exec_node = exec_refs[a].node;
            moving_writers[moving_refs[b].node].PutUint(
                moving_refs[b].stream_pos, rid_bytes);
            moving_writers[moving_refs[b].node].PutUint(prev_exec_node,
                                                        config.node_bytes);
          }
        }
        i = i_end;
        j = j_end;
      }
    }
    for (uint32_t d = 0; d < n; ++d) {
      if (!exec_out[d].empty()) {
        fabric.Send(node, d, exec_rid_type, std::move(exec_out[d]));
      }
      if (!moving_out[d].empty()) {
        fabric.Send(node, d, moving_rid_type, std::move(moving_out[d]));
      }
    }
    return Status::OK();
  }));

  // Phase 3: resolve rids; ship narrow tuples to the exec nodes.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "fetch & forward tuples", [&](uint32_t node) -> Status {
    for (const auto& msg : fabric.TakeInbox(node, exec_rid_type)) {
      ByteReader reader(msg.data);
      if (reader.remaining() % rid_bytes != 0) {
        return Status::Corruption("rid stream not a multiple of rid size");
      }
      const auto& stream = exec_streams[node][msg.src];
      while (!reader.Done()) {
        uint32_t pos = static_cast<uint32_t>(reader.GetUint(rid_bytes));
        if (pos >= stream.size()) {
          return Status::Corruption("rid past the end of the sent key stream");
        }
        exec_selected[node].push_back(stream[pos]);
      }
    }
    std::vector<std::vector<uint32_t>> rows_per_dest(n);
    for (const auto& msg : fabric.TakeInbox(node, moving_rid_type)) {
      ByteReader reader(msg.data);
      if (reader.remaining() % (rid_bytes + config.node_bytes) != 0) {
        return Status::Corruption("rid stream not a multiple of entry size");
      }
      const auto& stream = moving_streams[node][msg.src];
      while (!reader.Done()) {
        uint32_t pos = static_cast<uint32_t>(reader.GetUint(rid_bytes));
        uint32_t dest = static_cast<uint32_t>(reader.GetUint(config.node_bytes));
        if (pos >= stream.size()) {
          return Status::Corruption("rid past the end of the sent key stream");
        }
        if (dest >= n) {
          return Status::Corruption("rid entry names a node out of range");
        }
        rows_per_dest[dest].push_back(stream[pos]);
      }
    }
    const TupleBlock& block = moving_table.node(node);
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (rows_per_dest[dst].empty()) continue;
      ByteBuffer buf;
      block.SerializeRowsIndexed(rows_per_dest[dst], config.key_bytes, &buf);
      fabric.Send(node, dst, moving_data_type, std::move(buf));
    }
    return Status::OK();
  }));

  // Phase 4: re-join by key at the exec nodes.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final rejoin", [&](uint32_t node) -> Status {
    TupleBlock selected(exec_table.payload_width());
    std::sort(exec_selected[node].begin(), exec_selected[node].end());
    for (uint32_t row : exec_selected[node]) {
      selected.AppendFrom(exec_table.node(node), row);
    }
    SortBlockByKey(&selected, config.thread_pool);
    for (const auto& msg : fabric.TakeInbox(node, moving_data_type)) {
      ByteReader reader(msg.data);
      TJ_RETURN_IF_ERROR(
          moving_in[node].TryDeserializeRows(&reader, config.key_bytes));
    }
    SortBlockByKey(&moving_in[node], config.thread_pool);
    // Keep (key, payloadR, payloadS) orientation for the checksum.
    const TupleBlock& r_side = exec_on_r ? selected : moving_in[node];
    const TupleBlock& s_side = exec_on_r ? moving_in[node] : selected;
    MergeJoinSorted(r_side, s_side, outputs.Sink(node));
    return Status::OK();
  }));
  return FinishJoin("rid-hj", fabric, &outputs);
}

}  // namespace tj
