#include "replay.h"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>
#include <vector>

#include "common/flat_table.h"
#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/key_aggregate.h"
#include "exec/local_join.h"
#include "exec/partition.h"
#include "exec/radix_sort.h"
#include "net/fabric.h"
#include "net/pipelined_fabric.h"

namespace tj::perfbench {

namespace {

/// Runs fn() inside a span named `name` and returns its result.
template <typename Fn>
auto Timed(SpanRecorder* recorder, const char* name, Fn&& fn) {
  ScopedSpan span(recorder, name);
  return fn();
}

uint64_t DistinctKeys(const std::vector<TrackEntry>& entries) {
  uint64_t keys = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].key != entries[i - 1].key) ++keys;
  }
  return keys;
}

/// Appends `block`'s rows listed per destination to that destination's
/// block, through the wire format the drivers use.
Status MoveRows(const TupleBlock& block, uint32_t key_bytes,
                const std::vector<std::vector<uint32_t>>& rows_per_dest,
                std::vector<TupleBlock>* dest_blocks) {
  for (uint32_t dst = 0; dst < rows_per_dest.size(); ++dst) {
    if (rows_per_dest[dst].empty()) continue;
    ByteBuffer buf;
    block.SerializeRowsIndexed(rows_per_dest[dst], key_bytes, &buf);
    ByteReader reader(buf);
    TJ_RETURN_IF_ERROR((*dest_blocks)[dst].TryDeserializeRows(&reader,
                                                              key_bytes));
  }
  return Status::OK();
}

/// Routes the sorted block's run of each pair's key to the pair's node.
void RouteRuns(const TupleBlock& block, const std::vector<KeyNodePair>& pairs,
               std::vector<std::vector<uint32_t>>* rows_per_dest) {
  for (const KeyNodePair& pair : pairs) {
    auto [lo, hi] = block.EqualRange(pair.key);
    auto& rows = (*rows_per_dest)[pair.node];
    for (uint64_t row = lo; row < hi; ++row) {
      rows.push_back(static_cast<uint32_t>(row));
    }
  }
}

/// Joins each node's (r, s) block pairs twice: with a sink that does
/// nothing ("exec.join") and with the output checksum sink
/// ("storage.checksum_join"); the checksum's cost is the difference.
Status ReplayJoin(
    const std::vector<std::vector<std::pair<const TupleBlock*,
                                            const TupleBlock*>>>& joins,
    uint32_t width_r, uint32_t width_s, SpanRecorder* recorder,
    ReplayOutput* out) {
  const JoinSink count_only = [](uint64_t, const uint8_t*, const uint8_t*) {};
  uint64_t rows = 0, checksum_rows = 0;
  for (const auto& node_joins : joins) {
    ScopedSpan span(recorder, "exec.join");
    for (const auto& [r, s] : node_joins) {
      rows += MergeJoinSorted(*r, *s, count_only);
    }
  }
  for (const auto& node_joins : joins) {
    ScopedSpan span(recorder, "storage.checksum_join");
    JoinChecksum checksum;
    const JoinSink sink = ChecksumSink(&checksum, width_r, width_s);
    for (const auto& [r, s] : node_joins) {
      checksum_rows += MergeJoinSorted(*r, *s, sink);
    }
    out->checksum.Merge(checksum);
  }
  if (rows != checksum_rows) {
    return Status::Corruption("replayed join produced different row counts");
  }
  out->counts["exec.join.output_rows"] = rows;
  return Status::OK();
}

/// Carries one payload per directed link, sized from `traffic`, through a
/// barrier fabric: one phase sends, the next takes every inbox.
Status ReplayFabric(const TrafficMatrix& traffic, SpanRecorder* recorder,
                    ReplayOutput* out) {
  const uint32_t n = traffic.num_nodes();
  std::vector<std::vector<ByteBuffer>> payloads(n, std::vector<ByteBuffer>(n));
  uint64_t bytes = 0;
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      payloads[src][dst].assign(traffic.LinkBytes(src, dst), 0);
      bytes += payloads[src][dst].size();
    }
  }
  ScopedSpan span(recorder, "net.fabric");
  Fabric fabric(n);
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable("send", [&](uint32_t node) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (payloads[node][dst].empty()) continue;
      fabric.Send(node, dst, MessageType::kDataR,
                  std::move(payloads[node][dst]));
    }
    return Status::OK();
  }));
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable("receive", [&](uint32_t node) {
    fabric.TakeInbox(node);
    return Status::OK();
  }));
  out->counts["net.fabric.bytes"] = bytes;
  return Status::OK();
}

/// Carries each directed link's bytes from `traffic` through a pipelined
/// fabric as the query's micro-batch chunks (chunk_bytes each, the last one
/// partial), with no-op handlers.
Status ReplayPipelinedFabric(const TrafficMatrix& traffic,
                             const JoinConfig& config, SpanRecorder* recorder,
                             ReplayOutput* out) {
  const uint32_t n = traffic.num_nodes();
  const uint64_t chunk_bytes = config.pipeline.chunk_bytes;
  std::vector<std::vector<std::vector<ByteBuffer>>> chunks(
      n, std::vector<std::vector<ByteBuffer>>(n));
  uint64_t num_chunks = 0;
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      for (uint64_t left = traffic.LinkBytes(src, dst); left > 0;) {
        const uint64_t size = std::min(left, chunk_bytes);
        chunks[src][dst].emplace_back(size, 0);
        left -= size;
        ++num_chunks;
      }
    }
  }
  ScopedSpan span(recorder, "net.pipelined_fabric");
  PipelinedFabric::Params params;
  params.num_nodes = n;
  params.cost.cpu_bandwidth_bytes_per_sec =
      config.pipeline.cpu_bandwidth_bytes_per_sec;
  params.chunk_bytes = chunk_bytes;
  params.inbox_budget_bytes = config.pipeline.inbox_budget_bytes;
  params.egress_policy = config.pipeline.drr ? EgressSchedPolicy::kDrr
                                             : EgressSchedPolicy::kFifo;
  params.drr_quantum_bytes = config.pipeline.drr_quantum_bytes;
  PipelinedFabric fabric(params);
  fabric.OnChunk(MessageType::kDataR, "replay",
                 [](const Chunk&) { return Status::OK(); });
  for (uint32_t src = 0; src < n; ++src) {
    fabric.Post(src, "replay", "send", [&fabric, &chunks, src, n] {
      for (uint32_t dst = 0; dst < n; ++dst) {
        auto& link = chunks[src][dst];
        for (size_t i = 0; i < link.size(); ++i) {
          fabric.SendChunk(src, dst, MessageType::kDataR, std::move(link[i]),
                           /*eos=*/i + 1 == link.size());
        }
      }
      return Status::OK();
    });
  }
  TJ_RETURN_IF_ERROR(fabric.Run());
  out->counts["net.pipelined_fabric.chunks"] = num_chunks;
  return Status::OK();
}

/// The barrier 4TJ driver's phases (core/track_join.cc), layer by layer.
/// With `pipelined`, the pipelined driver's work instead: the same local,
/// tracking and scheduling layers, no re-sort of received tuples (it joins
/// on arrival) and the pipelined fabric in place of the barrier one.
Status ReplayTrack4(const Workload& workload, const JoinConfig& config,
                    bool pipelined, const JoinResult& query,
                    SpanRecorder* recorder, ReplayOutput* out) {
  const PartitionedTable& r = workload.r;
  const PartitionedTable& s = workload.s;
  const uint32_t n = r.num_nodes();
  const uint32_t key_bytes = config.key_bytes;
  const uint32_t width_r = key_bytes + r.payload_width();
  const uint32_t width_s = key_bytes + s.payload_width();
  Counts& counts = out->counts;

  std::vector<TupleBlock> rb, sb;
  for (uint32_t node = 0; node < n; ++node) {
    rb.push_back(r.node(node));
    sb.push_back(s.node(node));
    ScopedSpan span(recorder, "exec.sort");
    SortBlockByKey(&rb[node]);
    SortBlockByKey(&sb[node]);
  }
  counts["exec.sort.tuples"] = r.TotalRows() + s.TotalRows();

  std::vector<std::vector<KeyCount>> r_keys(n), s_keys(n);
  for (uint32_t node = 0; node < n; ++node) {
    ScopedSpan span(recorder, "exec.aggregate");
    r_keys[node] = AggregateSortedKeys(rb[node]);
    s_keys[node] = AggregateSortedKeys(sb[node]);
  }
  counts["exec.aggregate.tuples"] = r.TotalRows() + s.TotalRows();
  for (uint32_t node = 0; node < n; ++node) {
    counts["exec.aggregate.keys"] += r_keys[node].size() + s_keys[node].size();
  }

  std::vector<std::vector<Message>> track_r_in(n), track_s_in(n);
  for (uint32_t src = 0; src < n; ++src) {
    auto [r_msgs, s_msgs] = Timed(recorder, "core.tracker.encode", [&] {
      return std::pair(
          EncodeTrackingMessages(r_keys[src], config, /*with_counts=*/true, n),
          EncodeTrackingMessages(s_keys[src], config, /*with_counts=*/true,
                                 n));
    });
    for (uint32_t dst = 0; dst < n; ++dst) {
      counts["core.tracker.bytes"] += r_msgs[dst].size() + s_msgs[dst].size();
      if (!r_msgs[dst].empty()) {
        track_r_in[dst].push_back(
            {src, MessageType::kTrackR, std::move(r_msgs[dst])});
      }
      if (!s_msgs[dst].empty()) {
        track_s_in[dst].push_back(
            {src, MessageType::kTrackS, std::move(s_msgs[dst])});
      }
    }
  }

  std::vector<std::vector<TrackEntry>> track_r(n), track_s(n);
  for (uint32_t node = 0; node < n; ++node) {
    TJ_RETURN_IF_ERROR(Timed(recorder, "core.tracker.merge", [&]() -> Status {
      TJ_RETURN_IF_ERROR(TryMergeTrackingMessages(
          track_r_in[node], config, /*with_counts=*/true, &track_r[node]));
      return TryMergeTrackingMessages(track_s_in[node], config,
                                      /*with_counts=*/true, &track_s[node]);
    }));
    track_r_in[node].clear();
    track_s_in[node].clear();
    counts["core.tracker.entries"] +=
        track_r[node].size() + track_s[node].size();
    counts["core.tracker.keys"] +=
        DistinctKeys(track_r[node]) + DistinctKeys(track_s[node]);
  }

  std::vector<KeyPlanOutputs> plans;
  plans.reserve(n);
  for (uint32_t node = 0; node < n; ++node) {
    plans.emplace_back(n);
    ScopedSpan span(recorder, "core.schedule");
    KeyPlanner planner(config, TrackJoinVersion::k4Phase, Direction::kRtoS, n,
                       node, width_r, width_s, /*audit=*/nullptr);
    PlacementIterator it(track_r[node], track_s[node], width_r, width_s, node,
                         config.MsgBytes());
    uint64_t keys = 0;
    while (it.Next()) {
      const bool hot_candidate =
          config.hot_key_threshold > 0 &&
          it.OutputProductAtLeast(config.hot_key_threshold);
      planner.PlanKey(it.key(), it.placement(), hot_candidate, &plans.back());
      ++keys;
    }
    counts["core.schedule.keys"] += keys;
  }
  for (const KeyPlanOutputs& plan : plans) {
    std::vector<uint64_t> migrated;
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (!plan.frag_r[dst].empty() || !plan.frag_s[dst].empty()) {
        return Status::InvalidArgument(
            "the replay does not cover hot-key splits");
      }
      for (const auto* group : {&plan.migr_r[dst], &plan.migr_s[dst]}) {
        for (const KeyNodePair& pair : *group) migrated.push_back(pair.key);
      }
    }
    std::sort(migrated.begin(), migrated.end());
    counts["core.schedule.migrated_keys"] +=
        std::unique(migrated.begin(), migrated.end()) - migrated.begin();
  }

  // Instructions as each holder decodes them, per destination and kind, in
  // (source, kind) order like the driver's inbox.
  enum { kLocR, kLocS, kMigR, kMigS, kKinds };
  std::vector<std::array<std::vector<KeyNodePair>, kKinds>> instr(n);
  for (uint32_t src = 0; src < n; ++src) {
    const KeyPlanOutputs& plan = plans[src];
    for (uint32_t dst = 0; dst < n; ++dst) {
      const std::array<std::pair<MessageType, const std::vector<KeyNodePair>*>,
                       kKinds>
          lists = {{{MessageType::kLocationsToR, &plan.loc_to_r[dst]},
                    {MessageType::kLocationsToS, &plan.loc_to_s[dst]},
                    {MessageType::kMigrateR, &plan.migr_r[dst]},
                    {MessageType::kMigrateS, &plan.migr_s[dst]}}};
      for (int kind = 0; kind < kKinds; ++kind) {
        const auto& [type, pairs] = lists[kind];
        if (pairs->empty()) continue;
        Message msg{src, type, Timed(recorder, "core.tracker.pairs", [&] {
                      return EncodeKeyNodePairs(*pairs, config);
                    })};
        counts["core.tracker.pairs.bytes"] += msg.data.size();
        std::vector<KeyNodePair> decoded;
        TJ_RETURN_IF_ERROR(Timed(recorder, "core.tracker.pairs", [&] {
          return TryDecodeKeyNodePairs(msg, config, &decoded);
        }));
        auto& into = instr[dst][kind];
        into.insert(into.end(), decoded.begin(), decoded.end());
      }
    }
  }
  plans.clear();

  // Selective broadcast and migration (phase 7), then the receiving side
  // (phase 8): migrated runs join the local blocks, broadcast tuples form
  // the probe blocks.
  std::vector<TupleBlock> r_in(n, TupleBlock(r.payload_width()));
  std::vector<TupleBlock> s_in(n, TupleBlock(s.payload_width()));
  std::vector<TupleBlock> r_mig(n, TupleBlock(r.payload_width()));
  std::vector<TupleBlock> s_mig(n, TupleBlock(s.payload_width()));
  for (uint32_t node = 0; node < n; ++node) {
    ScopedSpan span(recorder, "driver.data_movement");
    std::vector<std::vector<uint32_t>> rows(n);
    RouteRuns(rb[node], instr[node][kLocR], &rows);
    TJ_RETURN_IF_ERROR(MoveRows(rb[node], key_bytes, rows, &r_in));
    rows.assign(n, {});
    RouteRuns(sb[node], instr[node][kLocS], &rows);
    TJ_RETURN_IF_ERROR(MoveRows(sb[node], key_bytes, rows, &s_in));
    for (auto [kind, block, mig] : {std::tuple(kMigR, &rb[node], &r_mig),
                                    std::tuple(kMigS, &sb[node], &s_mig)}) {
      const std::vector<KeyNodePair>& pairs = instr[node][kind];
      if (pairs.empty()) continue;
      rows.assign(n, {});
      RouteRuns(*block, pairs, &rows);
      TJ_RETURN_IF_ERROR(MoveRows(*block, key_bytes, rows, mig));
      FlatSet migrated;
      migrated.Reserve(pairs.size());
      for (const KeyNodePair& pair : pairs) migrated.Insert(pair.key);
      block->Filter(
          [&](uint64_t row) { return !migrated.Contains(block->Key(row)); });
    }
  }
  // The barrier driver re-sorts what it received; the pipelined driver joins
  // on arrival and never does, so there the sorts are replay glue only.
  const char* receive_sort = pipelined ? "driver.data_movement" : "exec.sort";
  for (uint32_t node = 0; node < n; ++node) {
    for (auto [block, mig] : {std::pair(&rb[node], &r_mig[node]),
                              std::pair(&sb[node], &s_mig[node])}) {
      if (mig->empty()) continue;
      Timed(recorder, "driver.data_movement", [&] {
        for (uint64_t row = 0; row < mig->size(); ++row) {
          block->AppendFrom(*mig, row);
        }
        *mig = TupleBlock(mig->payload_width());
      });
      if (!pipelined) counts["exec.sort.tuples"] += block->size();
      Timed(recorder, receive_sort, [&] { SortBlockByKey(block); });
    }
    if (!pipelined) {
      counts["exec.sort.tuples"] += r_in[node].size() + s_in[node].size();
    }
    Timed(recorder, receive_sort, [&] {
      SortBlockByKey(&r_in[node]);
      SortBlockByKey(&s_in[node]);
    });
  }

  std::vector<std::vector<std::pair<const TupleBlock*, const TupleBlock*>>>
      joins(n);
  for (uint32_t node = 0; node < n; ++node) {
    joins[node] = {{&r_in[node], &sb[node]}, {&rb[node], &s_in[node]}};
  }
  TJ_RETURN_IF_ERROR(ReplayJoin(joins, r.payload_width(), s.payload_width(),
                                recorder, out));
  return pipelined ? ReplayPipelinedFabric(query.traffic, config, recorder, out)
                   : ReplayFabric(query.traffic, recorder, out);
}

/// The Grace hash join driver's phases (baseline/hash_join.cc).
Status ReplayHash(const Workload& workload, const JoinConfig& config,
                  const JoinResult& query, SpanRecorder* recorder,
                  ReplayOutput* out) {
  const uint32_t n = workload.r.num_nodes();
  std::vector<TupleBlock> r_in(n, TupleBlock(workload.r.payload_width()));
  std::vector<TupleBlock> s_in(n, TupleBlock(workload.s.payload_width()));
  for (auto [table, in] : {std::pair(&workload.r, &r_in),
                           std::pair(&workload.s, &s_in)}) {
    for (uint32_t node = 0; node < n; ++node) {
      Result<PartitionLayout> layout = Timed(recorder, "exec.partition", [&] {
        return TryRadixPartition(table->node(node), n);
      });
      TJ_RETURN_IF_ERROR(layout.status());
      out->counts["exec.partition.tuples"] += layout->tuples.size();
      ScopedSpan span(recorder, "driver.data_movement");
      for (uint32_t dst = 0; dst < n; ++dst) {
        ByteBuffer buf;
        layout->tuples.SerializeRows(layout->Begin(dst), layout->End(dst),
                                     config.key_bytes, &buf);
        ByteReader reader(buf);
        TJ_RETURN_IF_ERROR(
            (*in)[dst].TryDeserializeRows(&reader, config.key_bytes));
      }
    }
  }
  std::vector<std::vector<std::pair<const TupleBlock*, const TupleBlock*>>>
      joins(n);
  for (uint32_t node = 0; node < n; ++node) {
    ScopedSpan span(recorder, "exec.sort");
    SortBlockByKey(&r_in[node]);
    SortBlockByKey(&s_in[node]);
    out->counts["exec.sort.tuples"] += r_in[node].size() + s_in[node].size();
    joins[node] = {{&r_in[node], &s_in[node]}};
  }
  TJ_RETURN_IF_ERROR(ReplayJoin(joins, workload.r.payload_width(),
                                workload.s.payload_width(), recorder, out));
  return ReplayFabric(query.traffic, recorder, out);
}

}  // namespace

Status ReplayLayers(Driver driver, const Workload& workload,
                    const JoinConfig& config, const JoinResult& query,
                    SpanRecorder* recorder, ReplayOutput* out) {
  switch (driver) {
    case Driver::kTrack4:
      return ReplayTrack4(workload, config, /*pipelined=*/false, query,
                          recorder, out);
    case Driver::kTrack4Pipelined:
      return ReplayTrack4(workload, config, /*pipelined=*/true, query,
                          recorder, out);
    case Driver::kHash:
      return ReplayHash(workload, config, query, recorder, out);
  }
  return Status::InvalidArgument("unknown driver");
}

}  // namespace tj::perfbench
