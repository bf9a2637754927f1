#include "core/late_hash_join.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/partition.h"
#include "net/fabric.h"

namespace tj {

namespace {

/// A key observed by the hash node with its implicit rid (position in the
/// source -> hash-node key stream).
struct KeyRef {
  uint64_t key;
  uint32_t node;
  uint32_t stream_pos;
};

/// One output pair awaiting its payloads: positions index into the fetch
/// request streams this hash node sent to each side's source node.
struct PairRef {
  uint64_t key;
  uint32_t r_src;
  uint32_t r_pos;
  uint32_t s_src;
  uint32_t s_pos;
};

Status TryCollectSorted(Fabric* fabric, uint32_t node, MessageType type,
                        uint32_t key_bytes, std::vector<KeyRef>* refs) {
  refs->clear();
  for (const auto& msg : fabric->TakeInbox(node, type)) {
    if (msg.data.size() % key_bytes != 0) {
      return Status::Corruption("key stream not a multiple of the key width");
    }
    ByteReader reader(msg.data);
    uint32_t pos = 0;
    while (!reader.Done()) {
      refs->push_back(KeyRef{reader.GetUint(key_bytes), msg.src, pos++});
    }
  }
  std::sort(refs->begin(), refs->end(), [](const KeyRef& a, const KeyRef& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.node != b.node) return a.node < b.node;
    return a.stream_pos < b.stream_pos;
  });
  return Status::OK();
}

}  // namespace

Result<JoinResult> TryRunLateMaterializedHashJoin(const PartitionedTable& r,
                                                  const PartitionedTable& s,
                                                  const JoinConfig& config,
                                                  uint32_t rid_bytes) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  // Sender-side memory of which rows went into each key stream.
  std::vector<std::vector<std::vector<uint32_t>>> r_streams(n), s_streams(n);
  // Hash-node state: output pairs and per-source fetch request counts.
  std::vector<std::vector<PairRef>> pairs(n);
  // Received payload streams, per (hash node, source node).
  std::vector<std::vector<ByteBuffer>> r_payloads(n), s_payloads(n);
  JoinOutputs outputs(r, s, config);

  // Phase 1: ship key columns in row order (rids implicit).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "transfer key columns", [&](uint32_t node) -> Status {
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
            send_keys(r.node(node), MessageType::kTrackR, &r_streams[node]));
        TJ_RETURN_IF_ERROR(
            send_keys(s.node(node), MessageType::kTrackS, &s_streams[node]));
        return Status::OK();
      }));

  // Phase 2: join keys into rid pairs; request both payloads per pair.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "join keys & request payloads", [&](uint32_t node) -> Status {
        std::vector<KeyRef> r_refs, s_refs;
        TJ_RETURN_IF_ERROR(TryCollectSorted(&fabric, node, MessageType::kTrackR,
                                            config.key_bytes, &r_refs));
        TJ_RETURN_IF_ERROR(TryCollectSorted(&fabric, node, MessageType::kTrackS,
                                            config.key_bytes, &s_refs));

        // Fetch request streams (rid lists, duplicates intended: one entry per
        // output pair) and per-source positions.
        std::vector<ByteBuffer> r_req(n), s_req(n);
        std::vector<uint32_t> r_req_count(n, 0), s_req_count(n, 0);

        size_t i = 0, j = 0;
        while (i < r_refs.size() && j < s_refs.size()) {
          uint64_t rk = r_refs[i].key, sk = s_refs[j].key;
          if (rk < sk) {
            ++i;
          } else if (sk < rk) {
            ++j;
          } else {
            size_t i_end = i;
            while (i_end < r_refs.size() && r_refs[i_end].key == rk) ++i_end;
            size_t j_end = j;
            while (j_end < s_refs.size() && s_refs[j_end].key == rk) ++j_end;
            for (size_t a = i; a < i_end; ++a) {
              for (size_t b = j; b < j_end; ++b) {
                const KeyRef& ra = r_refs[a];
                const KeyRef& sb = s_refs[b];
                ByteWriter(&r_req[ra.node]).PutUint(ra.stream_pos, rid_bytes);
                ByteWriter(&s_req[sb.node]).PutUint(sb.stream_pos, rid_bytes);
                pairs[node].push_back(PairRef{rk, ra.node,
                                              r_req_count[ra.node]++, sb.node,
                                              s_req_count[sb.node]++});
              }
            }
            i = i_end;
            j = j_end;
          }
        }
        for (uint32_t dst = 0; dst < n; ++dst) {
          if (!r_req[dst].empty()) {
            fabric.Send(node, dst, MessageType::kRidR, std::move(r_req[dst]));
          }
          if (!s_req[dst].empty()) {
            fabric.Send(node, dst, MessageType::kRidS, std::move(s_req[dst]));
          }
        }
        return Status::OK();
      }));

  // Phase 3: answer fetch requests with raw payload streams, in request
  // order (so no ids are needed on the responses).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "fetch payloads", [&](uint32_t node) -> Status {
        auto respond = [&](MessageType req_type, MessageType data_type,
                           const TupleBlock& block,
                           const std::vector<std::vector<uint32_t>>& streams)
            -> Status {
          for (const auto& msg : fabric.TakeInbox(node, req_type)) {
            const auto& stream = streams[msg.src];
            if (msg.data.size() % rid_bytes != 0) {
              return Status::Corruption(
                  "rid request stream not a multiple of the rid width");
            }
            ByteReader reader(msg.data);
            ByteBuffer out;
            ByteWriter writer(&out);
            while (!reader.Done()) {
              uint32_t pos = static_cast<uint32_t>(reader.GetUint(rid_bytes));
              if (pos >= stream.size()) {
                return Status::Corruption(
                    "rid request past the end of the sent key stream");
              }
              if (block.payload_width() > 0) {
                writer.PutBytes(block.Payload(stream[pos]),
                                block.payload_width());
              }
            }
            fabric.Send(node, msg.src, data_type, std::move(out));
          }
          return Status::OK();
        };
        TJ_RETURN_IF_ERROR(respond(MessageType::kRidR, MessageType::kDataR,
                                   r.node(node), r_streams[node]));
        TJ_RETURN_IF_ERROR(respond(MessageType::kRidS, MessageType::kDataS,
                                   s.node(node), s_streams[node]));
        return Status::OK();
      }));

  // Phase 4: zip the payload streams into output tuples.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "materialize output", [&](uint32_t node) -> Status {
        r_payloads[node].assign(n, ByteBuffer());
        s_payloads[node].assign(n, ByteBuffer());
        for (auto& msg : fabric.TakeInbox(node, MessageType::kDataR)) {
          r_payloads[node][msg.src] = std::move(msg.data);
        }
        for (auto& msg : fabric.TakeInbox(node, MessageType::kDataS)) {
          s_payloads[node][msg.src] = std::move(msg.data);
        }
        const uint32_t wr = r.payload_width(), ws = s.payload_width();
        const JoinSink& sink = outputs.Sink(node);
        for (const PairRef& pair : pairs[node]) {
          const ByteBuffer& rp = r_payloads[node][pair.r_src];
          const ByteBuffer& sp = s_payloads[node][pair.s_src];
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
  return FinishJoin("late-hj", fabric, &outputs);
}

}  // namespace tj
