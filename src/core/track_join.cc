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

/// Per-node working state across the de-pipelined phases.
struct NodeState {
  TupleBlock r{0};
  TupleBlock s{0};
  std::vector<KeyCount> r_keys;
  std::vector<KeyCount> s_keys;
  // Tracker role: merged (key, node, count) facts for both tables.
  std::vector<TrackEntry> track_r;
  std::vector<TrackEntry> track_s;
  // Received selective-broadcast tuples (including free local copies).
  TupleBlock r_in{0};
  TupleBlock s_in{0};
  // Recycles retired message buffers across phases. Per-node by the
  // fabric's ownership rule, so no locking under concurrent phases.
  BufferPool pool;
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

  // Fragment instructions carry each hot key's workers in split order
  // (chunk k goes to the k-th listed worker), so they keep the plain
  // order-preserving pair encoding even under --group, which reorders pairs
  // by node.
  JoinConfig frag_config = config;
  frag_config.group_locations = false;

  Fabric fabric(n);
  ConfigureFabric(config, &fabric);
  ScheduleAuditLog* audit = config.schedule_audit;
  if (audit != nullptr) audit->Reset(n);
  std::vector<NodeState> nodes(n);
  JoinOutputs outputs(r, s, config);

  // Phase 1-2: sort local copies of both tables (paper Table 4 rows 1-2).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "sort local R tuples", [&](uint32_t node) {
        nodes[node].r = r.node(node);
        SortBlockByKey(&nodes[node].r, config.thread_pool);
        return Status::OK();
      }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "sort local S tuples", [&](uint32_t node) {
        nodes[node].s = s.node(node);
        SortBlockByKey(&nodes[node].s, config.thread_pool);
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
    BufferPool* pool = &nodes[node].pool;
    auto r_msgs = EncodeTrackingMessages(nodes[node].r_keys, config,
                                         with_counts, n, pool);
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (!r_msgs[dst].empty()) {
        fabric.Send(node, dst, MessageType::kTrackR, std::move(r_msgs[dst]));
      } else {
        pool->Recycle(std::move(r_msgs[dst]));
      }
    }
    auto s_msgs = EncodeTrackingMessages(nodes[node].s_keys, config,
                                         with_counts, n, pool);
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (!s_msgs[dst].empty()) {
        fabric.Send(node, dst, MessageType::kTrackS, std::move(s_msgs[dst]));
      } else {
        pool->Recycle(std::move(s_msgs[dst]));
      }
    }
    return Status::OK();
  }));

  // Phase 5: trackers merge the received key streams. Every per-source
  // stream arrives key-sorted, so this is a streaming k-way merge with
  // inline (key, node) aggregation — O(n log k), no concatenated entry
  // vector, no comparison sort ("we can aggregate at the destination",
  // Section 2.2).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "merge received keys", [&](uint32_t node) -> Status {
        NodeState& st = nodes[node];
        auto r_msgs = fabric.TakeInbox(node, MessageType::kTrackR);
        TJ_RETURN_IF_ERROR(TryMergeTrackingMessages(r_msgs, config,
                                                    with_counts, &st.track_r));
        for (auto& msg : r_msgs) st.pool.Recycle(std::move(msg.data));
        auto s_msgs = fabric.TakeInbox(node, MessageType::kTrackS);
        TJ_RETURN_IF_ERROR(TryMergeTrackingMessages(s_msgs, config,
                                                    with_counts, &st.track_s));
        for (auto& msg : s_msgs) st.pool.Recycle(std::move(msg.data));
        return Status::OK();
      }));

  // Phase 6: generate per-key schedules; send location lists to the
  // broadcast-side nodes and (4-phase) migration instructions to the
  // migrating target-side nodes.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "generate schedules & send locations", [&](uint32_t node) {
    NodeState& st = nodes[node];
    // The per-key decision logic (direction choice, migration planning,
    // hot-split adoption, audit recording, instruction fan-out) is shared
    // with the pipelined driver via KeyPlanner; the balance-aware
    // LoadBalancer lives inside it. Each tracker owns a uniform random ~1/N
    // of the keys, so local balancing approximates global balancing
    // (Section 5).
    KeyPlanOutputs outs(n);
    KeyPlanner planner(config, version, direction, n, node, width_r, width_s,
                       audit);

    PlacementIterator it(st.track_r, st.track_s, width_r, width_s, node,
                         config.MsgBytes());
    while (it.Next()) {
      const bool hot_candidate =
          version == TrackJoinVersion::k4Phase &&
          config.hot_key_threshold > 0 &&
          it.OutputProductAtLeast(config.hot_key_threshold);
      planner.PlanKey(it.key(), it.placement(), hot_candidate, &outs);
    }

    for (uint32_t dst = 0; dst < n; ++dst) {
      if (!outs.loc_to_r[dst].empty()) {
        fabric.Send(node, dst, MessageType::kLocationsToR,
                    EncodeKeyNodePairs(outs.loc_to_r[dst], config, &st.pool));
      }
      if (!outs.loc_to_s[dst].empty()) {
        fabric.Send(node, dst, MessageType::kLocationsToS,
                    EncodeKeyNodePairs(outs.loc_to_s[dst], config, &st.pool));
      }
      if (!outs.migr_r[dst].empty()) {
        fabric.Send(node, dst, MessageType::kMigrateR,
                    EncodeKeyNodePairs(outs.migr_r[dst], config, &st.pool));
      }
      if (!outs.migr_s[dst].empty()) {
        fabric.Send(node, dst, MessageType::kMigrateS,
                    EncodeKeyNodePairs(outs.migr_s[dst], config, &st.pool));
      }
      if (!outs.frag_r[dst].empty()) {
        fabric.Send(node, dst, MessageType::kFragmentR,
                    EncodeKeyNodePairs(outs.frag_r[dst], frag_config,
                                       &st.pool));
      }
      if (!outs.frag_s[dst].empty()) {
        fabric.Send(node, dst, MessageType::kFragmentS,
                    EncodeKeyNodePairs(outs.frag_s[dst], frag_config,
                                       &st.pool));
      }
    }
    return Status::OK();
  }));

  // Phase 7: act on schedules. Each instruction type routes the instructed
  // local runs and ships them as one message per destination. Selective
  // broadcasts copy runs to the listed locations; a location equal to self
  // is a free local copy, which the fabric accounts apart from network
  // traffic. Migrations (4-phase) move whole runs and hot-split fragments
  // cut them across the key's workers; both drop the moved runs locally,
  // and workers merge the fragments next to their own kept rows in phase 8.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "selective broadcast & migrate", [&](uint32_t node) -> Status {
    NodeState& st = nodes[node];
    std::vector<KeyNodePair> pairs;
    auto act = [&](MessageType instr, MessageType data,
                   TupleBlock* block) -> Status {
      const bool split =
          instr == MessageType::kFragmentR || instr == MessageType::kFragmentS;
      const bool moves = split || instr == MessageType::kMigrateR ||
                         instr == MessageType::kMigrateS;
      std::vector<std::vector<uint32_t>> rows(n);
      FlatSet moved;
      auto instr_msgs = fabric.TakeInbox(node, instr);
      for (const auto& msg : instr_msgs) {
        TJ_RETURN_IF_ERROR(
            TryDecodeKeyNodePairs(msg, split ? frag_config : config, &pairs));
        RouteInstructedRows(*block, pairs, split, &rows);
        if (moves) {
          for (const auto& pair : pairs) moved.Insert(pair.key);
        }
      }
      for (auto& msg : instr_msgs) st.pool.Recycle(std::move(msg.data));
      SendRowsPerDest(&fabric, node, data, *block, config.key_bytes, rows,
                      &st.pool);
      if (!moved.empty()) {
        block->Filter(
            [&](uint64_t row) { return !moved.Contains(block->Key(row)); });
      }
      return Status::OK();
    };
    TJ_RETURN_IF_ERROR(
        act(MessageType::kLocationsToR, MessageType::kDataR, &st.r));
    TJ_RETURN_IF_ERROR(
        act(MessageType::kLocationsToS, MessageType::kDataS, &st.s));
    TJ_RETURN_IF_ERROR(
        act(MessageType::kMigrateR, MessageType::kMigrationDataR, &st.r));
    TJ_RETURN_IF_ERROR(
        act(MessageType::kMigrateS, MessageType::kMigrationDataS, &st.s));
    TJ_RETURN_IF_ERROR(
        act(MessageType::kFragmentR, MessageType::kMigrationDataR, &st.r));
    TJ_RETURN_IF_ERROR(
        act(MessageType::kFragmentS, MessageType::kMigrationDataS, &st.s));
    return Status::OK();
  }));

  // Phase 8: merge received tuples — migrated runs join the local blocks,
  // broadcast tuples form the probe blocks.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "merge received tuples", [&](uint32_t node) -> Status {
    NodeState& st = nodes[node];
    auto receive = [&](MessageType type, TupleBlock* block) {
      return TryReceiveRows(&fabric, node, type, config.key_bytes, block,
                            &st.pool);
    };
    const uint64_t r_kept = st.r.size(), s_kept = st.s.size();
    TJ_RETURN_IF_ERROR(receive(MessageType::kMigrationDataR, &st.r));
    TJ_RETURN_IF_ERROR(receive(MessageType::kMigrationDataS, &st.s));
    if (st.r.size() != r_kept) SortBlockByKey(&st.r, config.thread_pool);
    if (st.s.size() != s_kept) SortBlockByKey(&st.s, config.thread_pool);

    st.r_in = TupleBlock(r.payload_width());
    TJ_RETURN_IF_ERROR(receive(MessageType::kDataR, &st.r_in));
    SortBlockByKey(&st.r_in, config.thread_pool);
    st.s_in = TupleBlock(s.payload_width());
    TJ_RETURN_IF_ERROR(receive(MessageType::kDataS, &st.s_in));
    SortBlockByKey(&st.s_in, config.thread_pool);
    return Status::OK();
  }));

  // Phases 9-10: the final local joins, one per broadcast direction.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join R->S", [&](uint32_t node) {
        MergeJoinSorted(nodes[node].r_in, nodes[node].s, outputs.Sink(node));
        return Status::OK();
      }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join S->R", [&](uint32_t node) {
        MergeJoinSorted(nodes[node].r, nodes[node].s_in, outputs.Sink(node));
        return Status::OK();
      }));

  const char* algo_name =
      version == TrackJoinVersion::k2Phase
          ? (direction == Direction::kRtoS ? "2tj-r" : "2tj-s")
          : (version == TrackJoinVersion::k3Phase ? "3tj" : "4tj");
  return FinishJoin(algo_name, fabric, &outputs);
}

}  // namespace tj
