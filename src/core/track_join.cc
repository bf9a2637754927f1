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
  // Local output accumulation.
  JoinChecksum checksum;
  uint64_t output_rows = 0;
  // Recycles retired message buffers across phases. Per-node by the
  // fabric's ownership rule, so no locking under concurrent phases.
  BufferPool pool;
};

/// Sends the rows of `block` listed per destination node as one message per
/// destination. Empty destinations send nothing.
void SendRowsPerDest(Fabric* fabric, uint32_t src, MessageType type,
                     const TupleBlock& block, uint32_t key_bytes,
                     const std::vector<std::vector<uint32_t>>& rows_per_dest,
                     BufferPool* pool) {
  for (uint32_t dst = 0; dst < rows_per_dest.size(); ++dst) {
    if (rows_per_dest[dst].empty()) continue;
    ByteBuffer buf = pool != nullptr ? pool->Acquire() : ByteBuffer{};
    block.SerializeRowsIndexed(rows_per_dest[dst], key_bytes, &buf);
    fabric->Send(src, dst, type, std::move(buf));
  }
}

/// Appends the sorted block's run of `key` to every destination's row list.
void RouteKeyRun(const TupleBlock& block, uint64_t key,
                 const std::vector<uint32_t>& dests,
                 std::vector<std::vector<uint32_t>>* rows_per_dest) {
  auto [lo, hi] = block.EqualRange(key);
  for (uint32_t dst : dests) {
    auto& rows = (*rows_per_dest)[dst];
    for (uint64_t row = lo; row < hi; ++row) {
      rows.push_back(static_cast<uint32_t>(row));
    }
  }
}

}  // namespace

Result<JoinResult> TryRunTrackJoin(const PartitionedTable& r,
                                   const PartitionedTable& s,
                                   const JoinConfig& config,
                                   TrackJoinVersion version,
                                   Direction direction) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  const bool with_counts = version != TrackJoinVersion::k2Phase;
  const uint32_t width_r = config.key_bytes + r.payload_width();
  const uint32_t width_s = config.key_bytes + s.payload_width();

  Fabric fabric(n);
  fabric.SetThreadPool(config.thread_pool);
  if (config.fault_policy != nullptr) {
    fabric.SetFaultPolicy(*config.fault_policy, config.fault_seed);
  }
  fabric.SetPhaseDeadline(config.phase_deadline_seconds);
  fabric.SetDiagnosticsSink(config.diagnostics);
  ScheduleAuditLog* audit = config.schedule_audit;
  if (audit != nullptr) audit->Reset(n);
  std::vector<NodeState> nodes(n);

  const uint32_t out_width = r.payload_width() + s.payload_width();
  std::vector<TupleBlock> out_blocks;
  if (config.materialize) out_blocks.assign(n, TupleBlock(out_width));
  auto sink_for = [&](uint32_t node) {
    return config.materialize
               ? MaterializeSink(&out_blocks[node], &nodes[node].checksum,
                                 r.payload_width(), s.payload_width())
               : ChecksumSink(&nodes[node].checksum, r.payload_width(),
                              s.payload_width());
  };

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
      // Fragment instructions carry each hot key's workers in split order
      // (chunk k goes to the k-th listed worker), so they must keep the
      // plain order-preserving encoding even under --group, which reorders
      // pairs by node.
      JoinConfig frag_config = config;
      frag_config.group_locations = false;
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

  // Phase 7: act on schedules — selectively broadcast local runs to the
  // listed locations and ship migrating runs to their destinations.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "selective broadcast & migrate", [&](uint32_t node) -> Status {
    NodeState& st = nodes[node];

    // Selective broadcasts. A location equal to self is a free local copy;
    // the fabric accounts it separately from network traffic.
    std::vector<KeyNodePair> pairs;
    std::vector<std::vector<uint32_t>> r_rows(n), s_rows(n);
    auto loc_r_msgs = fabric.TakeInbox(node, MessageType::kLocationsToR);
    for (const auto& msg : loc_r_msgs) {
      TJ_RETURN_IF_ERROR(TryDecodeKeyNodePairs(msg, config, &pairs));
      for (const auto& pair : pairs) {
        RouteKeyRun(st.r, pair.key, {pair.node}, &r_rows);
      }
    }
    for (auto& msg : loc_r_msgs) st.pool.Recycle(std::move(msg.data));
    auto loc_s_msgs = fabric.TakeInbox(node, MessageType::kLocationsToS);
    for (const auto& msg : loc_s_msgs) {
      TJ_RETURN_IF_ERROR(TryDecodeKeyNodePairs(msg, config, &pairs));
      for (const auto& pair : pairs) {
        RouteKeyRun(st.s, pair.key, {pair.node}, &s_rows);
      }
    }
    for (auto& msg : loc_s_msgs) st.pool.Recycle(std::move(msg.data));
    SendRowsPerDest(&fabric, node, MessageType::kDataR, st.r, config.key_bytes,
                    r_rows, &st.pool);
    SendRowsPerDest(&fabric, node, MessageType::kDataS, st.s, config.key_bytes,
                    s_rows, &st.pool);

    // Migrations (4-phase): move whole local runs and drop them locally.
    auto run_migrations = [&](MessageType instr, MessageType data,
                              TupleBlock* block) -> Status {
      std::vector<std::vector<uint32_t>> rows(n);
      FlatSet migrated;
      auto instr_msgs = fabric.TakeInbox(node, instr);
      for (const auto& msg : instr_msgs) {
        TJ_RETURN_IF_ERROR(TryDecodeKeyNodePairs(msg, config, &pairs));
        for (const auto& pair : pairs) {
          RouteKeyRun(*block, pair.key, {pair.node}, &rows);
          migrated.Insert(pair.key);
        }
      }
      for (auto& msg : instr_msgs) st.pool.Recycle(std::move(msg.data));
      SendRowsPerDest(&fabric, node, data, *block, config.key_bytes, rows,
                      &st.pool);
      if (!migrated.empty()) {
        block->Filter([&](uint64_t row) {
          return !migrated.Contains(block->Key(row));
        });
      }
      return Status::OK();
    };
    TJ_RETURN_IF_ERROR(run_migrations(MessageType::kMigrateR,
                                      MessageType::kMigrationDataR, &st.r));
    TJ_RETURN_IF_ERROR(run_migrations(MessageType::kMigrateS,
                                      MessageType::kMigrationDataS, &st.s));

    // Hot-split fragments: a non-worker holder splits each instructed
    // key's run across its workers (SplitHotRuns), ships the pieces as
    // migration data, and drops the run locally. Workers merge the chunks
    // next to their own kept rows in phase 8.
    auto run_fragments = [&](MessageType instr, MessageType data,
                             TupleBlock* block) -> Status {
      std::vector<std::vector<uint32_t>> rows(n);
      FlatSet fragmented;
      // Mirrors the sender: fragment instructions always use the plain
      // order-preserving pair encoding, even under --group.
      JoinConfig frag_config = config;
      frag_config.group_locations = false;
      auto instr_msgs = fabric.TakeInbox(node, instr);
      for (const auto& msg : instr_msgs) {
        TJ_RETURN_IF_ERROR(TryDecodeKeyNodePairs(msg, frag_config, &pairs));
        SplitHotRuns(*block, pairs, &rows);
        for (const auto& pair : pairs) fragmented.Insert(pair.key);
      }
      for (auto& msg : instr_msgs) st.pool.Recycle(std::move(msg.data));
      SendRowsPerDest(&fabric, node, data, *block, config.key_bytes, rows,
                      &st.pool);
      if (!fragmented.empty()) {
        block->Filter([&](uint64_t row) {
          return !fragmented.Contains(block->Key(row));
        });
      }
      return Status::OK();
    };
    TJ_RETURN_IF_ERROR(run_fragments(MessageType::kFragmentR,
                                     MessageType::kMigrationDataR, &st.r));
    TJ_RETURN_IF_ERROR(run_fragments(MessageType::kFragmentS,
                                     MessageType::kMigrationDataS, &st.s));
    return Status::OK();
  }));

  // Phase 8: merge received tuples — migrated runs join the local blocks,
  // broadcast tuples form the probe blocks.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "merge received tuples", [&](uint32_t node) -> Status {
    NodeState& st = nodes[node];
    bool r_changed = false, s_changed = false;
    auto drain = [&](MessageType type, TupleBlock* block,
                     bool* changed) -> Status {
      auto msgs = fabric.TakeInbox(node, type);
      for (const auto& msg : msgs) {
        ByteReader reader(msg.data);
        TJ_RETURN_IF_ERROR(
            block->TryDeserializeRows(&reader, config.key_bytes));
        if (changed != nullptr) *changed = true;
      }
      for (auto& msg : msgs) st.pool.Recycle(std::move(msg.data));
      return Status::OK();
    };
    TJ_RETURN_IF_ERROR(drain(MessageType::kMigrationDataR, &st.r, &r_changed));
    TJ_RETURN_IF_ERROR(drain(MessageType::kMigrationDataS, &st.s, &s_changed));
    if (r_changed) SortBlockByKey(&st.r, config.thread_pool);
    if (s_changed) SortBlockByKey(&st.s, config.thread_pool);

    st.r_in = TupleBlock(r.payload_width());
    TJ_RETURN_IF_ERROR(drain(MessageType::kDataR, &st.r_in, nullptr));
    SortBlockByKey(&st.r_in, config.thread_pool);
    st.s_in = TupleBlock(s.payload_width());
    TJ_RETURN_IF_ERROR(drain(MessageType::kDataS, &st.s_in, nullptr));
    SortBlockByKey(&st.s_in, config.thread_pool);
    return Status::OK();
  }));

  // Phases 9-10: the final local joins, one per broadcast direction.
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join R->S", [&](uint32_t node) {
        NodeState& st = nodes[node];
        st.output_rows += MergeJoinSorted(st.r_in, st.s, sink_for(node));
        return Status::OK();
      }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "final merge-join S->R", [&](uint32_t node) {
        NodeState& st = nodes[node];
        st.output_rows += MergeJoinSorted(st.r, st.s_in, sink_for(node));
        return Status::OK();
      }));

  JoinResult result;
  result.traffic = fabric.traffic();
  result.phase_seconds = fabric.phase_seconds();
  result.reliability = fabric.reliability();
  const char* algo_name =
      version == TrackJoinVersion::k2Phase
          ? (direction == Direction::kRtoS ? "2tj-r" : "2tj-s")
          : (version == TrackJoinVersion::k3Phase ? "3tj" : "4tj");
  result.profile = BuildStepProfile(algo_name, fabric);
  result.node_output_rows.reserve(n);
  for (const auto& st : nodes) {
    result.output_rows += st.output_rows;
    result.node_output_rows.push_back(st.output_rows);
    result.checksum.Merge(st.checksum);
  }
  if (config.materialize) {
    result.output.emplace(r.name() + "_join_" + s.name(), n, out_width);
    for (uint32_t node = 0; node < n; ++node) {
      result.output->node(node) = std::move(out_blocks[node]);
    }
  }
  return result;
}

}  // namespace tj
