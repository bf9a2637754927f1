#include "core/track_join.h"

#include <algorithm>
#include <vector>

#include "common/flat_table.h"
#include "common/logging.h"
#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/key_aggregate.h"
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
  // Distinct-key projections: phase 3 to phase 4.
  std::vector<KeyCount> r_keys;
  std::vector<KeyCount> s_keys;
  // Tracker role: merged (key, node, count) facts for both tables, phase 5
  // to phase 6.
  std::vector<TrackEntry> track_r;
  std::vector<TrackEntry> track_s;
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

  // Phase 3: aggregate distinct keys and local counts.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable("aggregate keys", [&](uint32_t node) {
    nodes[node].r_keys = AggregateSortedKeys(nodes[node].r);
    nodes[node].s_keys = AggregateSortedKeys(nodes[node].s);
    return Status::OK();
  }));

  // Phase 4: hash partition the key projections and send them to the
  // trackers (the tracking phase proper).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "hash partition & transfer keys", [&](uint32_t node) {
    auto send = [&](const std::vector<KeyCount>& keys, MessageType type) {
      auto msgs = EncodeTrackingMessages(keys, config, with_counts, n);
      for (uint32_t dst = 0; dst < n; ++dst) {
        if (!msgs[dst].empty()) {
          fabric.Send(node, dst, type, std::move(msgs[dst]));
        }
      }
    };
    send(nodes[node].r_keys, MessageType::kTrackR);
    send(nodes[node].s_keys, MessageType::kTrackS);
    std::vector<KeyCount>().swap(nodes[node].r_keys);
    std::vector<KeyCount>().swap(nodes[node].s_keys);
    return Status::OK();
  }));

  // Phase 5: trackers merge the received key streams. Every per-source
  // stream arrives key-sorted, so this is a streaming k-way merge with
  // inline (key, node) aggregation — O(n log k), no comparison sort ("we
  // can aggregate at the destination", Section 2.2).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "merge received keys", [&](uint32_t node) -> Status {
        NodeState& st = nodes[node];
        auto merge = [&](MessageType type, std::vector<TrackEntry>* out) {
          return TryMergeTrackingMessages(fabric.TakeInbox(node, type), config,
                                          with_counts, out);
        };
        TJ_RETURN_IF_ERROR(merge(MessageType::kTrackR, &st.track_r));
        return merge(MessageType::kTrackS, &st.track_s);
      }));

  // Phase 6: generate per-key schedules; send location lists to the
  // broadcast-side nodes and (4-phase) migration and fragment instructions
  // to the target-side holders. The per-key decision logic is shared with
  // the pipelined driver via KeyPlanner; the balance-aware LoadBalancer
  // lives inside it. Each tracker owns a uniform random ~1/N of the keys,
  // so local balancing approximates global balancing (Section 5).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "generate schedules & send locations", [&](uint32_t node) {
    NodeState& st = nodes[node];
    KeyPlanOutputs outs(n);
    KeyPlanner(config, version, direction, n, node, width_r, width_s, audit)
        .PlanBatch(st.track_r, st.track_s, &outs);
    std::vector<TrackEntry>().swap(st.track_r);
    std::vector<TrackEntry>().swap(st.track_s);
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
