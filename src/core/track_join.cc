#include "core/track_join.h"

#include <algorithm>
#include <vector>

#include "common/flat_table.h"
#include "common/logging.h"
#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/local_join.h"
#include "exec/radix_sort.h"
#include "net/fabric.h"

namespace tj {

namespace {

/// Per-node working state across the de-pipelined phases. Each
/// intermediate is freed after the phase that last reads it (DESIGN.md has
/// the lifetime table), so a phase holds only its live set.
struct NodeState {
  TupleBlock r{0};
  TupleBlock s{0};
  // Tracking messages per table (0 = R, 1 = S): encoded per tracker in
  // phase 3 and sent in phase 4; received in phase 5, checked there, and
  // merged into the schedule in phase 6.
  std::vector<ByteBuffer> tracking_out[2];
  std::vector<Message> tracking_in[2];
  // Received data runs per table (0 = R, 1 = S), phase 8 to the final join
  // that reads them: selective-broadcast tuples (including free local
  // copies), and migrated rows with hot-split fragments, which join as part
  // of the kept block.
  std::vector<Message> broadcast[2];
  std::vector<Message> migrated[2];
};

}  // namespace

Result<JoinResult> TryRunTrackJoin(const PartitionedTable& r,
                                   const PartitionedTable& s,
                                   const JoinConfig& config,
                                   TrackJoinVersion version,
                                   Direction direction) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  TJ_RETURN_IF_ERROR(CheckNodeIdWidth(config, n));
  const bool with_counts = version != TrackJoinVersion::k2Phase;
  const uint32_t width_r = config.key_bytes + r.payload_width();
  const uint32_t width_s = config.key_bytes + s.payload_width();

  const std::span<const InstructionStream> streams =
      InstructionStreams(version);
  // Fragment instructions carry each hot key's workers in split order
  // (chunk k goes to the k-th listed worker), so they keep the plain
  // order-preserving pair encoding even under --group, which reorders pairs
  // by node.
  JoinConfig frag_config = config;
  frag_config.group_locations = false;
  auto pair_config = [&](const InstructionStream& stream) -> const JoinConfig& {
    return stream.split ? frag_config : config;
  };

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  ScheduleAuditLog* audit = config.schedule_audit;
  if (audit != nullptr) audit->Reset(n);
  std::vector<NodeState> nodes(n);
  JoinOutputs outputs(r, s, config);

  // Phase 1-2: sort both tables into the nodes' working blocks (paper
  // Table 4 rows 1-2), straight from the input partitions.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "sort local R tuples", [&](uint32_t node) {
        nodes[node].r = SortedCopyByKey(r.node(node), config.thread_pool);
        return Status::OK();
      }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "sort local S tuples", [&](uint32_t node) {
        nodes[node].s = SortedCopyByKey(s.node(node), config.thread_pool);
        return Status::OK();
      }));

  // Phase 3: aggregate each sorted block's runs of equal keys, distinct
  // keys with local counts, straight into its per-tracker tracking
  // messages.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable("aggregate keys", [&](uint32_t node) {
    NodeState& st = nodes[node];
    st.tracking_out[0] =
        EncodeSortedTrackingMessages(st.r.keys(), config, with_counts, n);
    st.tracking_out[1] =
        EncodeSortedTrackingMessages(st.s.keys(), config, with_counts, n);
    return Status::OK();
  }));

  // Phase 4: send the tracking messages to their trackers (the tracking
  // phase proper).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "hash partition & transfer keys", [&](uint32_t node) {
    NodeState& st = nodes[node];
    for (int table : {0, 1}) {
      const MessageType type =
          table == 0 ? MessageType::kTrackR : MessageType::kTrackS;
      for (uint32_t dst = 0; dst < n; ++dst) {
        ByteBuffer& msg = st.tracking_out[table][dst];
        if (!msg.empty()) fabric.Send(node, dst, type, std::move(msg));
      }
      std::vector<ByteBuffer>().swap(st.tracking_out[table]);
    }
    return Status::OK();
  }));

  // Phase 5: trackers take the received key streams and check them in
  // place; phase 6 merges them as it reads them ("we can aggregate at the
  // destination", Section 2.2).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "merge received keys", [&](uint32_t node) -> Status {
        NodeState& st = nodes[node];
        for (int table : {0, 1}) {
          st.tracking_in[table] = fabric.TakeInbox(
              node, table == 0 ? MessageType::kTrackR : MessageType::kTrackS);
          TJ_RETURN_IF_ERROR(TryCheckTrackingMessages(st.tracking_in[table],
                                                      config, with_counts));
        }
        return Status::OK();
      }));

  // Phase 6: generate per-key schedules; send location lists to the
  // broadcast-side nodes and (4-phase) migration and fragment instructions
  // to the target-side holders. Every per-source stream arrives key-sorted,
  // so the tracker merges them with inline (key, node) aggregation in
  // ascending key-range batches, O(n log k) with no comparison sort, and
  // plans each batch as it is merged. The per-key decision logic is shared
  // with the pipelined driver via KeyPlanner, whose balance state carries
  // across batches in key order as across the pipelined frontier's; the
  // balance-aware LoadBalancer lives inside it. Each tracker owns a uniform
  // random ~1/N of the keys, so local balancing approximates global
  // balancing (Section 5).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "generate schedules & send locations", [&](uint32_t node) -> Status {
    NodeState& st = nodes[node];
    KeyPlanOutputs outs(n);
    KeyPlanner planner(config, version, direction, n, node, width_r, width_s,
                       audit);
    TJ_RETURN_IF_ERROR(TryMergeTrackBatches(
        st.tracking_in[0], st.tracking_in[1], config, with_counts,
        [&](const std::vector<TrackEntry>& batch_r,
            const std::vector<TrackEntry>& batch_s) {
          planner.PlanBatch(batch_r, batch_s, &outs);
        }));
    for (std::vector<Message>& inbox : st.tracking_in) {
      std::vector<Message>().swap(inbox);
    }
    for (uint32_t dst = 0; dst < n; ++dst) {
      for (const InstructionStream& stream : streams) {
        const std::vector<KeyNodePair>& pairs = (outs.*stream.pairs)[dst];
        if (pairs.empty()) continue;
        fabric.Send(node, dst, stream.instr,
                    EncodeKeyNodePairs(pairs, pair_config(stream)));
      }
    }
    return Status::OK();
  }));

  // Phase 7: act on schedules. Each instruction stream routes the
  // instructed local runs and ships them as one message per destination.
  // The trackers' instruction lists route merged by key, so every
  // destination's rows ascend and each data message is one key-ascending
  // run. Selective broadcasts copy runs to the listed locations; a location
  // equal to self is a free local copy, which the fabric accounts apart
  // from network traffic. Migrations (4-phase) move whole runs and hot-split
  // fragments cut them across the key's workers; both drop the moved runs
  // locally, and workers join the fragments next to their own kept rows in
  // phases 9-10.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "selective broadcast & migrate", [&](uint32_t node) -> Status {
    NodeState& st = nodes[node];
    std::vector<KeyNodePair> decoded, pairs;
    for (const InstructionStream& stream : streams) {
      TupleBlock* block = stream.r_side ? &st.r : &st.s;
      std::vector<std::vector<uint32_t>> rows(n);
      pairs.clear();
      for (const auto& msg : fabric.TakeInbox(node, stream.instr)) {
        TJ_RETURN_IF_ERROR(
            TryDecodeKeyNodePairs(msg, pair_config(stream), &decoded));
        pairs.insert(pairs.end(), decoded.begin(), decoded.end());
      }
      RouteInstructedRows(*block, pairs, stream.split, &rows);
      SendRowsPerDest(&fabric, node, stream.data, *block, config.key_bytes,
                      rows);
      if (stream.migrates() && !pairs.empty()) {
        FlatSet moved;
        for (const auto& pair : pairs) moved.Insert(pair.key);
        block->Filter(
            [&](uint64_t row) { return !moved.Contains(block->Key(row)); });
      }
    }
    return Status::OK();
  }));

  // Phase 8: merge received tuples. Every data message is one key-ascending
  // run, checked here, so the final joins merge them by key as they read
  // them (MergedRuns): migrated runs and fragments next to the kept block,
  // broadcast runs on their own. Phase 10 joins the kept R block only with
  // received S tuples, and phase 9 the kept S block only with received R
  // tuples, so a node that receives none of one side's broadcast frees the
  // other side's kept block and migrated runs here (the broadcast side's
  // own kept block under 2-phase track join).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "merge received tuples", [&](uint32_t node) -> Status {
    NodeState& st = nodes[node];
    for (const InstructionStream& stream : streams) {
      // Fragments arrive as their side's migration data.
      if (stream.split) continue;
      const int table = stream.r_side ? 0 : 1;
      std::vector<Message>& runs =
          (stream.migrates() ? st.migrated : st.broadcast)[table];
      runs = fabric.TakeInbox(node, stream.data);
      TJ_RETURN_IF_ERROR(TryCheckReceivedRuns(
          runs, config.key_bytes, (stream.r_side ? r : s).payload_width()));
    }
    if (st.broadcast[1].empty()) {
      st.r = TupleBlock(r.payload_width());
      std::vector<Message>().swap(st.migrated[0]);
    }
    if (st.broadcast[0].empty()) {
      st.s = TupleBlock(s.payload_width());
      std::vector<Message>().swap(st.migrated[1]);
    }
    return Status::OK();
  }));

  // Phases 9-10: the final local joins, one per broadcast direction, each
  // freeing the runs it read last.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join R->S", [&](uint32_t node) {
        NodeState& st = nodes[node];
        {
          MergedRuns r_runs(nullptr, 0, 0, BytesOf(st.broadcast[0]),
                            config.key_bytes, r.payload_width());
          MergedRuns s_runs(&st.s, 0, st.s.size(), BytesOf(st.migrated[1]),
                            config.key_bytes, s.payload_width());
          MergeJoinRuns(&r_runs, &s_runs, outputs.Sink(node));
        }
        std::vector<Message>().swap(st.broadcast[0]);
        std::vector<Message>().swap(st.migrated[1]);
        st.s = TupleBlock(s.payload_width());
        return Status::OK();
      }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join S->R", [&](uint32_t node) {
        NodeState& st = nodes[node];
        {
          MergedRuns r_runs(&st.r, 0, st.r.size(), BytesOf(st.migrated[0]),
                            config.key_bytes, r.payload_width());
          MergedRuns s_runs(nullptr, 0, 0, BytesOf(st.broadcast[1]),
                            config.key_bytes, s.payload_width());
          MergeJoinRuns(&r_runs, &s_runs, outputs.Sink(node));
        }
        std::vector<Message>().swap(st.broadcast[1]);
        std::vector<Message>().swap(st.migrated[0]);
        st.r = TupleBlock(r.payload_width());
        return Status::OK();
      }));

  return FinishJoin(TrackJoinName(version, direction), &fabric, &outputs);
}

}  // namespace tj
