#include "core/key_column_join.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "exec/local_join.h"
#include "exec/partition.h"
#include "exec/radix_sort.h"
#include "net/fabric.h"

namespace tj {

namespace {

/// Width of a rid on the wire.
constexpr uint32_t kRidBytes = 4;

/// A key observed by the hash node: where it lives and its position in the
/// (src -> hash node) key stream, which doubles as the implicit rid.
struct KeyRef {
  uint64_t key;
  uint32_t node;
  uint32_t stream_pos;
};

/// One input table and the message types that carry it.
struct Side {
  Side(const PartitionedTable& t, bool is_r)
      : table(t),
        track(is_r ? MessageType::kTrackR : MessageType::kTrackS),
        rid(is_r ? MessageType::kRidR : MessageType::kRidS),
        data(is_r ? MessageType::kDataR : MessageType::kDataS),
        streams(t.num_nodes()) {}

  const PartitionedTable& table;
  MessageType track;  ///< Key column, to the hash nodes.
  MessageType rid;    ///< Rids, from the hash nodes back to this side.
  MessageType data;   ///< This side's payloads.
  /// Per (source node, hash node): the source's rows whose keys went into
  /// that key stream, in stream order — a rid names one by position.
  std::vector<std::vector<std::vector<uint32_t>>> streams;
};

/// Ships node `node`'s key column of `side`, in row order, to the hash
/// nodes and records which rows went into each stream.
Status TrySendKeyColumn(Fabric* fabric, uint32_t node, const JoinConfig& config,
                        Side* side) {
  const uint32_t n = fabric->num_nodes();
  // Radix-partition the key column into contiguous per-destination runs;
  // the stable layout keeps each stream in row order.
  Result<KeyPartitionLayout> layout =
      TryRadixPartitionKeys(side->table.node(node), n, config.thread_pool);
  TJ_RETURN_IF_ERROR(layout.status());
  std::vector<std::vector<uint32_t>>& streams = side->streams[node];
  streams.assign(n, {});
  for (uint32_t dst = 0; dst < n; ++dst) {
    if (layout->Size(dst) == 0) continue;
    streams[dst].assign(layout->row_ids.begin() + layout->Begin(dst),
                        layout->row_ids.begin() + layout->End(dst));
    ByteBuffer buf;
    ByteWriter writer(&buf);
    for (uint64_t i = layout->Begin(dst); i < layout->End(dst); ++i) {
      writer.PutUint(layout->keys[i], config.key_bytes);
    }
    fabric->Send(node, dst, side->track, std::move(buf));
  }
  return Status::OK();
}

/// Phase 1 of both joins: every node ships the key column of `first`, then
/// that of `second`.
Status TryTransferKeyColumns(Fabric* fabric, const JoinConfig& config,
                             Side* first, Side* second) {
  return fabric->RunPhaseReliable(
      "transfer key columns", [&](uint32_t node) -> Status {
        TJ_RETURN_IF_ERROR(TrySendKeyColumn(fabric, node, config, first));
        return TrySendKeyColumn(fabric, node, config, second);
      });
}

/// Takes the key streams of `side` received by hash node `node` and returns
/// them as refs sorted by (key, source node, stream position).
Result<std::vector<KeyRef>> TryCollectKeyRefs(Fabric* fabric, uint32_t node,
                                              const Side& side,
                                              uint32_t key_bytes) {
  std::vector<KeyRef> refs;
  for (const auto& msg : fabric->TakeInbox(node, side.track)) {
    if (msg.data.size() % key_bytes != 0) {
      return Status::Corruption("key stream not a multiple of the key width");
    }
    ByteReader reader(msg.data);
    uint32_t pos = 0;
    while (!reader.Done()) {
      refs.push_back(KeyRef{reader.GetUint(key_bytes), msg.src, pos++});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const KeyRef& a, const KeyRef& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.node != b.node) return a.node < b.node;
    return a.stream_pos < b.stream_pos;
  });
  return refs;
}

/// Calls `fn(a_group, b_group)` for every key present in both sorted ref
/// arrays, in key order, with the run of refs carrying it on each side.
template <typename Fn>
void ForEachKeyGroup(const std::vector<KeyRef>& a, const std::vector<KeyRef>& b,
                     Fn&& fn) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].key < b[j].key) {
      ++i;
    } else if (b[j].key < a[i].key) {
      ++j;
    } else {
      const uint64_t key = a[i].key;
      size_t i_end = i, j_end = j;
      while (i_end < a.size() && a[i_end].key == key) ++i_end;
      while (j_end < b.size() && b[j_end].key == key) ++j_end;
      fn(std::span<const KeyRef>(a.data() + i, i_end - i),
         std::span<const KeyRef>(b.data() + j, j_end - j));
      i = i_end;
      j = j_end;
    }
  }
}

/// Sends the hash node's rid streams, one message per non-empty buffer,
/// destination by destination (`first` before `second`).
void SendRidStreams(Fabric* fabric, uint32_t node, const Side& first,
                    std::vector<ByteBuffer>* first_out, const Side& second,
                    std::vector<ByteBuffer>* second_out) {
  for (uint32_t dst = 0; dst < first_out->size(); ++dst) {
    if (!(*first_out)[dst].empty()) {
      fabric->Send(node, dst, first.rid, std::move((*first_out)[dst]));
    }
    if (!(*second_out)[dst].empty()) {
      fabric->Send(node, dst, second.rid, std::move((*second_out)[dst]));
    }
  }
}

/// Fails unless `data` holds whole `entry_bytes`-wide rid entries.
Status CheckRidEntries(const ByteBuffer& data, uint32_t entry_bytes) {
  if (data.size() % entry_bytes != 0) {
    return Status::Corruption("rid stream not a multiple of the entry width");
  }
  return Status::OK();
}

/// Reads one rid and returns the local row it names in `stream`.
Result<uint32_t> TryReadRid(ByteReader* reader,
                            const std::vector<uint32_t>& stream) {
  const uint64_t pos = reader->GetUint(kRidBytes);
  if (pos >= stream.size()) {
    return Status::Corruption("rid past the end of the sent key stream");
  }
  return stream[pos];
}

/// One output pair awaiting its payloads: positions index into the fetch
/// request streams this hash node sent to each side's source node.
struct PairRef {
  uint64_t key;
  uint32_t r_src;
  uint32_t r_pos;
  uint32_t s_src;
  uint32_t s_pos;
};

}  // namespace

Result<JoinResult> TryRunRidHashJoin(const PartitionedTable& r,
                                     const PartitionedTable& s,
                                     const JoinConfig& config) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  TJ_RETURN_IF_ERROR(CheckNodeIdWidth(config, n));
  // The join result migrates to the wider side; the narrower side travels.
  const bool exec_on_r = r.payload_width() >= s.payload_width();
  Side exec(exec_on_r ? r : s, exec_on_r);
  Side moving(exec_on_r ? s : r, !exec_on_r);

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  // Per node: the exec rows to join and the moving rows received.
  std::vector<std::vector<uint32_t>> exec_selected(n);
  std::vector<TupleBlock> moving_in(n,
                                    TupleBlock(moving.table.payload_width()));
  JoinOutputs outputs(r, s, config);

  TJ_RETURN_IF_ERROR(TryTransferKeyColumns(&fabric, config, &exec, &moving));

  // Phase 2: join the key columns; send rids home.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "join keys & return rids", [&](uint32_t node) -> Status {
    TJ_ASSIGN_OR_RETURN(
        std::vector<KeyRef> exec_refs,
        TryCollectKeyRefs(&fabric, node, exec, config.key_bytes));
    TJ_ASSIGN_OR_RETURN(
        std::vector<KeyRef> moving_refs,
        TryCollectKeyRefs(&fabric, node, moving, config.key_bytes));

    // Per destination: rid lists for the exec side, (rid, exec node) pairs
    // for the moving side.
    std::vector<ByteBuffer> exec_out(n), moving_out(n);
    ForEachKeyGroup(exec_refs, moving_refs,
                    [&](std::span<const KeyRef> exec_group,
                        std::span<const KeyRef> moving_group) {
      // Exec rows learn they participate (one rid each).
      for (const KeyRef& e : exec_group) {
        ByteWriter(&exec_out[e.node]).PutUint(e.stream_pos, kRidBytes);
      }
      // Moving rows learn every distinct exec location for their key.
      for (const KeyRef& m : moving_group) {
        ByteWriter writer(&moving_out[m.node]);
        uint32_t prev_exec_node = ~0u;
        for (const KeyRef& e : exec_group) {
          if (e.node == prev_exec_node) continue;
          prev_exec_node = e.node;
          writer.PutUint(m.stream_pos, kRidBytes);
          writer.PutUint(prev_exec_node, config.node_bytes);
        }
      }
    });
    SendRidStreams(&fabric, node, exec, &exec_out, moving, &moving_out);
    return Status::OK();
  }));

  // Phase 3: resolve rids; ship narrow tuples to the exec nodes.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "fetch & forward tuples", [&](uint32_t node) -> Status {
    for (const auto& msg : fabric.TakeInbox(node, exec.rid)) {
      TJ_RETURN_IF_ERROR(CheckRidEntries(msg.data, kRidBytes));
      const auto& stream = exec.streams[node][msg.src];
      ByteReader reader(msg.data);
      while (!reader.Done()) {
        TJ_ASSIGN_OR_RETURN(uint32_t row, TryReadRid(&reader, stream));
        exec_selected[node].push_back(row);
      }
    }
    std::vector<std::vector<uint32_t>> rows_per_dest(n);
    for (const auto& msg : fabric.TakeInbox(node, moving.rid)) {
      TJ_RETURN_IF_ERROR(
          CheckRidEntries(msg.data, kRidBytes + config.node_bytes));
      const auto& stream = moving.streams[node][msg.src];
      ByteReader reader(msg.data);
      while (!reader.Done()) {
        TJ_ASSIGN_OR_RETURN(uint32_t row, TryReadRid(&reader, stream));
        const uint64_t dest = reader.GetUint(config.node_bytes);
        if (dest >= n) {
          return Status::Corruption("rid entry names a node out of range");
        }
        rows_per_dest[dest].push_back(row);
      }
    }
    SendRowsPerDest(&fabric, node, moving.data, moving.table.node(node),
                    config.key_bytes, rows_per_dest);
    return Status::OK();
  }));

  // Phase 4: re-join by key at the exec nodes.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final rejoin", [&](uint32_t node) -> Status {
    TupleBlock selected(exec.table.payload_width());
    std::sort(exec_selected[node].begin(), exec_selected[node].end());
    for (uint32_t row : exec_selected[node]) {
      selected.AppendFrom(exec.table.node(node), row);
    }
    SortBlockByKey(&selected, config.thread_pool);
    TJ_RETURN_IF_ERROR(TryReceiveRows(&fabric, node, moving.data,
                                      config.key_bytes, &moving_in[node]));
    SortBlockByKey(&moving_in[node], config.thread_pool);
    // Keep (key, payloadR, payloadS) orientation for the checksum.
    const TupleBlock& r_side = exec_on_r ? selected : moving_in[node];
    const TupleBlock& s_side = exec_on_r ? moving_in[node] : selected;
    MergeJoinSorted(r_side, s_side, outputs.Sink(node));
    return Status::OK();
  }));
  return FinishJoin("rid-hj", &fabric, &outputs);
}

Result<JoinResult> TryRunLateMaterializedHashJoin(const PartitionedTable& r,
                                                  const PartitionedTable& s,
                                                  const JoinConfig& config) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  Side r_side(r, true);
  Side s_side(s, false);

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  // Hash-node state: the output pairs awaiting their payloads.
  std::vector<std::vector<PairRef>> pairs(n);
  JoinOutputs outputs(r, s, config);

  TJ_RETURN_IF_ERROR(TryTransferKeyColumns(&fabric, config, &r_side, &s_side));

  // Phase 2: join keys into rid pairs; request both payloads per pair.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "join keys & request payloads", [&](uint32_t node) -> Status {
        TJ_ASSIGN_OR_RETURN(
            std::vector<KeyRef> r_refs,
            TryCollectKeyRefs(&fabric, node, r_side, config.key_bytes));
        TJ_ASSIGN_OR_RETURN(
            std::vector<KeyRef> s_refs,
            TryCollectKeyRefs(&fabric, node, s_side, config.key_bytes));

        // Fetch request streams (rid lists, duplicates intended: one entry per
        // output pair) and per-source positions.
        std::vector<ByteBuffer> r_req(n), s_req(n);
        std::vector<uint32_t> r_req_count(n, 0), s_req_count(n, 0);
        ForEachKeyGroup(r_refs, s_refs,
                        [&](std::span<const KeyRef> r_group,
                            std::span<const KeyRef> s_group) {
          for (const KeyRef& ra : r_group) {
            for (const KeyRef& sb : s_group) {
              ByteWriter(&r_req[ra.node]).PutUint(ra.stream_pos, kRidBytes);
              ByteWriter(&s_req[sb.node]).PutUint(sb.stream_pos, kRidBytes);
              pairs[node].push_back(PairRef{ra.key, ra.node,
                                            r_req_count[ra.node]++, sb.node,
                                            s_req_count[sb.node]++});
            }
          }
        });
        SendRidStreams(&fabric, node, r_side, &r_req, s_side, &s_req);
        return Status::OK();
      }));

  // Phase 3: answer fetch requests with raw payload streams, in request
  // order (so no ids are needed on the responses).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "fetch payloads", [&](uint32_t node) -> Status {
        auto respond = [&](const Side& side) -> Status {
          const TupleBlock& block = side.table.node(node);
          for (const auto& msg : fabric.TakeInbox(node, side.rid)) {
            TJ_RETURN_IF_ERROR(CheckRidEntries(msg.data, kRidBytes));
            const auto& stream = side.streams[node][msg.src];
            ByteReader reader(msg.data);
            ByteBuffer out;
            ByteWriter writer(&out);
            while (!reader.Done()) {
              TJ_ASSIGN_OR_RETURN(uint32_t row, TryReadRid(&reader, stream));
              if (block.payload_width() > 0) {
                writer.PutBytes(block.Payload(row), block.payload_width());
              }
            }
            fabric.Send(node, msg.src, side.data, std::move(out));
          }
          return Status::OK();
        };
        TJ_RETURN_IF_ERROR(respond(r_side));
        return respond(s_side);
      }));

  // Phase 4: zip the payload streams into output tuples.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "materialize output", [&](uint32_t node) -> Status {
        // Received payload streams, per source node.
        std::vector<ByteBuffer> r_payloads(n), s_payloads(n);
        for (auto& msg : fabric.TakeInbox(node, r_side.data)) {
          r_payloads[msg.src] = std::move(msg.data);
        }
        for (auto& msg : fabric.TakeInbox(node, s_side.data)) {
          s_payloads[msg.src] = std::move(msg.data);
        }
        const uint32_t wr = r.payload_width(), ws = s.payload_width();
        const JoinSink& sink = outputs.Sink(node);
        for (const PairRef& pair : pairs[node]) {
          const ByteBuffer& rp = r_payloads[pair.r_src];
          const ByteBuffer& sp = s_payloads[pair.s_src];
          if (static_cast<uint64_t>(pair.r_pos + 1) * wr > rp.size() ||
              static_cast<uint64_t>(pair.s_pos + 1) * ws > sp.size()) {
            return Status::Corruption(
                "fetched payload stream shorter than the requested pairs");
          }
          // A 1x1 group: the row at r_pos of R's stream, s_pos of S's.
          sink(pair.key, PayloadRun{rp.data(), wr, 1, &pair.r_pos},
               PayloadRun{sp.data(), ws, 1, &pair.s_pos});
        }
        return Status::OK();
      }));
  return FinishJoin("late-hj", &fabric, &outputs);
}

}  // namespace tj
