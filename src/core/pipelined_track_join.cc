#include "core/pipelined_track_join.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_table.h"
#include "common/logging.h"
#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/key_aggregate.h"
#include "exec/local_join.h"
#include "exec/radix_sort.h"
#include "net/buffer_pool.h"
#include "net/pipelined_fabric.h"
#include "obs/step_profile.h"

namespace tj {

namespace {

/// Frontier bound of a fully-delivered stream: past every possible key.
constexpr uint64_t kStreamDone = ~0ULL;

/// Key-ascending runs of tracker entries, one per stream with entries in
/// the batch's key range.
using TrackRuns = std::vector<std::vector<TrackEntry>>;

/// One tracker-side incoming tracking stream (one source, one table).
/// Entries arrive key-sorted, which intake checks; `watermark` promises no
/// later chunk carries a key strictly below it. `pending[consumed..]` are
/// the entries not yet handed to a schedule batch.
struct TrackStream {
  std::vector<TrackEntry> pending;
  size_t consumed = 0;
  uint64_t last_key = 0;
  uint64_t watermark = 0;
  bool started = false;
  bool eos = false;

  /// Keys strictly below the bound are final for this stream.
  uint64_t Bound() const {
    if (eos) return kStreamDone;
    return started ? watermark : 0;
  }

  /// Hands the pending entries with key < `bound` (all of them when
  /// `take_all`) to a new run; empty when none qualify. Memory the stream
  /// no longer needs goes with the run or back to the allocator, as a
  /// deque's consumed blocks would.
  std::vector<TrackEntry> TakeBelow(uint64_t bound, bool take_all) {
    const auto first = pending.begin() + consumed;
    const auto last =
        take_all ? pending.end()
                 : std::lower_bound(first, pending.end(), bound,
                                    [](const TrackEntry& e, uint64_t key) {
                                      return e.key < key;
                                    });
    std::vector<TrackEntry> run;
    if (first == pending.begin() && last == pending.end()) {
      run.swap(pending);  // Everything pending: no copy.
      return run;
    }
    run.assign(first, last);
    consumed = last - pending.begin();
    if (consumed == pending.size()) {
      pending = {};
      consumed = 0;
    } else if (consumed * 2 >= pending.size()) {
      // Compact the consumed prefix once it is half the vector, so pending
      // memory stays proportional to what is actually pending.
      pending.erase(pending.begin(), pending.begin() + consumed);
      consumed = 0;
    }
    return run;
  }
};

/// Rows of a growing TupleBlock chained by key, indexed lazily: the index
/// covers a prefix of the block and CatchUp extends it to the rest, so a
/// block nobody probes is never indexed. `ends_` packs each key's first and
/// last row into one word ((first + 1) << 32 | last, so 0 means absent);
/// `next_` links each row to the next row with the same key, in arrival
/// order.
class KeyedRows {
 public:
  /// Indexes the rows appended to `block` since the last call.
  void CatchUp(const TupleBlock& block) {
    TJ_CHECK_LT(block.size(), uint64_t{kEnd});
    for (uint32_t row = static_cast<uint32_t>(next_.size());
         row < block.size(); ++row) {
      next_.push_back(kEnd);
      uint64_t& ends = ends_[block.Key(row)];
      if (ends != 0) next_[static_cast<uint32_t>(ends)] = row;
      const uint64_t first = ends != 0 ? (ends >> 32) - 1 : row;
      ends = (first + 1) << 32 | row;
    }
  }

  /// Calls fn(row) for each indexed row with `key`, in arrival order.
  template <typename Fn>
  void ForEachRow(uint64_t key, Fn&& fn) const {
    const uint64_t* ends = ends_.Find(key);
    if (ends == nullptr) return;
    for (uint32_t row = static_cast<uint32_t>((*ends >> 32) - 1); row != kEnd;
         row = next_[row]) {
      fn(row);
    }
  }

 private:
  static constexpr uint32_t kEnd = ~0u;
  FlatMap<uint64_t> ends_;
  std::vector<uint32_t> next_;
};

/// Per-node working state across all pipelined roles (source, tracker,
/// holder, joiner).
struct PipelineNodeState {
  // Source role: sorted home blocks. Never filtered — data for a key only
  // ever travels to its surviving locations, so a run that migrated or
  // fragmented away is simply never probed again.
  TupleBlock r{0};
  TupleBlock s{0};

  // Tracker role: per-(source, table) streams, the merge frontier, and the
  // persistent per-key planner (balance state spans frontier batches).
  std::vector<TrackStream> streams_r;
  std::vector<TrackStream> streams_s;
  uint64_t frontier = 0;
  bool final_batch_posted = false;
  std::optional<KeyPlanner> planner;

  // Holder role: instruction-EOS countdown toward closing the data streams.
  uint32_t instr_eos = 0;
  bool data_eos_sent = false;
  // Per-chunk scratch, kept to reuse its capacity: decoded instructions
  // and the home rows bound for each destination.
  std::vector<KeyNodePair> pairs;
  std::vector<std::vector<uint32_t>> route_rows;

  // Joiner role: received broadcast and migration rows, indexed by key for
  // incremental exactly-once pairing once the opposing stream probes them.
  TupleBlock in_r{0};
  TupleBlock in_s{0};
  TupleBlock mig_r{0};
  TupleBlock mig_s{0};
  KeyedRows in_r_rows, in_s_rows, mig_r_rows, mig_s_rows;
  uint32_t data_eos = 0;

  BufferPool pool;
};

/// The driver chunks its wire streams at entry boundaries, which only the
/// plain fixed-width encodings allow (delta-coded keys and node-grouped
/// pairs carry cross-entry context).
Status RequirePlainWireFormat(const JoinConfig& config) {
  if (config.delta_tracking || config.group_locations) {
    return Status::InvalidArgument(
        "pipelined track join requires the plain wire format "
        "(delta_tracking and group_locations must be off)");
  }
  return Status::OK();
}

}  // namespace

Result<JoinResult> TryRunPipelinedTrackJoin(const PartitionedTable& r,
                                            const PartitionedTable& s,
                                            const JoinConfig& config,
                                            TrackJoinVersion version,
                                            Direction direction) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  TJ_RETURN_IF_ERROR(RequirePlainWireFormat(config));
  TJ_RETURN_IF_ERROR(CheckNodeIdWidth(config, r.num_nodes()));

  const uint32_t n = r.num_nodes();
  const bool four_phase = version == TrackJoinVersion::k4Phase;
  // 2-phase tracking carries keys only; every entry implies count 1.
  const bool with_counts = version != TrackJoinVersion::k2Phase;
  const uint32_t width_r = config.key_bytes + r.payload_width();
  const uint32_t width_s = config.key_bytes + s.payload_width();
  const PlainEntryLayout track_layout(config, with_counts);
  const uint32_t track_entry_bytes = track_layout.entry_bytes();
  const uint32_t pair_bytes = config.key_bytes + config.node_bytes;
  // EOS fan-in: every tracker terminates every instruction stream to every
  // holder; every holder then terminates every data stream to every joiner.
  const uint32_t expected_instr_eos = n * (four_phase ? 6 : 2);
  const uint32_t expected_data_eos = n * (four_phase ? 4 : 2);

  PipelinedFabric::Params params;
  params.num_nodes = n;
  params.cost.cpu_bandwidth_bytes_per_sec =
      config.pipeline.cpu_bandwidth_bytes_per_sec;
  params.chunk_bytes = config.pipeline.chunk_bytes;
  params.inbox_budget_bytes = config.pipeline.inbox_budget_bytes;
  params.fault_policy = config.fault_policy;
  params.fault_seed = config.fault_seed;
  params.egress_policy = config.pipeline.drr ? EgressSchedPolicy::kDrr
                                             : EgressSchedPolicy::kFifo;
  params.drr_quantum_bytes = config.pipeline.drr_quantum_bytes;
  PipelinedFabric fabric(params);
  // Fan-outs start at self + 1 under the FIFO egress policy so the senders
  // don't all hammer the same receiver NIC in lockstep (classic all-to-all
  // staggering; per-link bytes and stream order are unaffected). DRR's
  // per-destination scheduler subsumes the workaround, so it is retired
  // there and fan-outs run in natural destination order.
  const bool drr_sched = config.pipeline.drr;
  auto fan_out_dst = [n, drr_sched](uint32_t self, uint32_t step) {
    return drr_sched ? step : (self + 1 + step) % n;
  };
  // Fix the stage order for profiles and the barrier reference: scheduling
  // tasks only materialize mid-run, after the transfer/join handlers have
  // already registered their stages.
  for (const char* stage : {"source", "track", "schedule", "transfer", "join"}) {
    fabric.DeclareStage(stage);
  }

  ScheduleAuditLog* audit = config.schedule_audit;
  if (audit != nullptr) audit->Reset(n);

  std::vector<PipelineNodeState> nodes(n);
  for (uint32_t node = 0; node < n; ++node) {
    PipelineNodeState& st = nodes[node];
    st.streams_r.resize(n);
    st.streams_s.resize(n);
    st.in_r = TupleBlock(r.payload_width());
    st.in_s = TupleBlock(s.payload_width());
    st.mig_r = TupleBlock(r.payload_width());
    st.mig_s = TupleBlock(s.payload_width());
    st.planner.emplace(config, version, direction, n, node, width_r, width_s,
                       audit);
  }

  JoinOutputs outputs(r, s, config);
  const uint32_t out_width = r.payload_width() + s.payload_width();

  // Sends `message` as entry-aligned chunks on one (src, dst, type) stream,
  // marking the last chunk EOS; an empty stream terminates with a zero-byte
  // EOS chunk so receivers can count it.
  auto send_sliced_stream = [&](uint32_t src, uint32_t dst, MessageType type,
                                const ByteBuffer& message,
                                uint32_t entry_bytes) {
    if (message.empty()) {
      fabric.SendChunk(src, dst, type, ByteBuffer{}, /*eos=*/true);
      return;
    }
    std::vector<WireChunk> chunks = SliceEntryMessage(
        message, entry_bytes, config.key_bytes, config.pipeline.chunk_bytes);
    for (size_t i = 0; i < chunks.size(); ++i) {
      fabric.SendChunk(src, dst, type, std::move(chunks[i].data),
                       /*eos=*/i + 1 == chunks.size(), chunks[i].watermark);
    }
  };

  // Mid-stream (non-terminating) sliced send, used for data chunks whose
  // streams are closed separately by the EOS countdown.
  auto send_sliced_data = [&](uint32_t src, uint32_t dst, MessageType type,
                              const ByteBuffer& message,
                              uint32_t entry_bytes) {
    std::vector<WireChunk> chunks = SliceEntryMessage(
        message, entry_bytes, config.key_bytes, config.pipeline.chunk_bytes);
    for (WireChunk& chunk : chunks) {
      fabric.SendChunk(src, dst, type, std::move(chunk.data), /*eos=*/false,
                       chunk.watermark);
    }
  };

  // --- Source role: three tasks per node on its serial CPU, in order. ---
  for (uint32_t node = 0; node < n; ++node) {
    fabric.Post(node, "source", "source.sort_r", [&, node]() {
      PipelineNodeState& st = nodes[node];
      st.r = r.node(node);
      SortBlockByKey(&st.r);
      fabric.ChargeCpuBytes(st.r.size() * width_r);
      return Status::OK();
    });
    fabric.Post(node, "source", "source.sort_s", [&, node]() {
      PipelineNodeState& st = nodes[node];
      st.s = s.node(node);
      SortBlockByKey(&st.s);
      fabric.ChargeCpuBytes(st.s.size() * width_s);
      return Status::OK();
    });
    fabric.Post(node, "source", "source.track", [&, node]() {
      PipelineNodeState& st = nodes[node];
      std::vector<KeyCount> r_keys = AggregateSortedKeys(st.r);
      std::vector<KeyCount> s_keys = AggregateSortedKeys(st.s);
      fabric.ChargeCpuBytes((st.r.size() + st.s.size()) * config.key_bytes);
      auto r_msgs =
          EncodeTrackingMessages(r_keys, config, with_counts, n, &st.pool);
      auto s_msgs =
          EncodeTrackingMessages(s_keys, config, with_counts, n, &st.pool);
      for (uint32_t step = 0; step < n; ++step) {
        const uint32_t dst = fan_out_dst(node, step);
        fabric.ChargeCpuBytes(r_msgs[dst].size() + s_msgs[dst].size());
        send_sliced_stream(node, dst, MessageType::kTrackR, r_msgs[dst],
                           track_entry_bytes);
        send_sliced_stream(node, dst, MessageType::kTrackS, s_msgs[dst],
                           track_entry_bytes);
        st.pool.Recycle(std::move(r_msgs[dst]));
        st.pool.Recycle(std::move(s_msgs[dst]));
      }
      return Status::OK();
    });
  }

  // --- Tracker role: merge streams by watermark frontier, schedule each
  // completed key range as its own micro-batch task. ---
  auto post_schedule_batch = [&](uint32_t node, uint64_t lo, uint64_t hi,
                                 bool final_batch, TrackRuns runs_r,
                                 TrackRuns runs_s) {
    fabric.Post(
        node, "schedule", "schedule",
        [&, node, lo, final_batch, runs_r = std::move(runs_r),
         runs_s = std::move(runs_s)]() -> Status {
          PipelineNodeState& st = nodes[node];
          // Per-batch merge of the streams' key-ascending runs: all entries
          // of every key below the frontier are present, so aggregation is
          // complete, and batch outputs concatenate to exactly the global
          // merged stream.
          std::vector<TrackEntry> batch_r, batch_s;
          TJ_RETURN_IF_ERROR(TryMergeTrackRuns(runs_r, lo, &batch_r));
          TJ_RETURN_IF_ERROR(TryMergeTrackRuns(runs_s, lo, &batch_s));
          fabric.ChargeCpuBytes((batch_r.size() + batch_s.size()) *
                                track_entry_bytes);

          KeyPlanOutputs outs(n);
          PlacementIterator it(batch_r, batch_s, width_r, width_s, node,
                               config.MsgBytes());
          while (it.Next()) {
            const bool hot_candidate =
                four_phase && config.hot_key_threshold > 0 &&
                it.OutputProductAtLeast(config.hot_key_threshold);
            st.planner->PlanKey(it.key(), it.placement(), hot_candidate,
                                &outs);
          }

          JoinConfig frag_config = config;
          frag_config.group_locations = false;
          auto send_pairs = [&](MessageType type, uint32_t dst,
                                const std::vector<KeyNodePair>& pairs,
                                bool keep_groups) {
            if (pairs.empty()) return;
            ByteBuffer buf = EncodeKeyNodePairs(
                pairs, keep_groups ? frag_config : config, &st.pool);
            fabric.ChargeCpuBytes(buf.size());
            if (keep_groups) {
              // A hot key's w-pair worker group must stay in one chunk —
              // the fragment handler needs the whole group to cut the run
              // into w near-equal pieces.
              fabric.SendChunk(node, dst, type, std::move(buf),
                               /*eos=*/false);
            } else {
              send_sliced_data(node, dst, type, buf, pair_bytes);
              st.pool.Recycle(std::move(buf));
            }
          };
          for (uint32_t step = 0; step < n; ++step) {
            const uint32_t dst = fan_out_dst(node, step);
            send_pairs(MessageType::kLocationsToR, dst, outs.loc_to_r[dst],
                       false);
            send_pairs(MessageType::kLocationsToS, dst, outs.loc_to_s[dst],
                       false);
            send_pairs(MessageType::kMigrateR, dst, outs.migr_r[dst], false);
            send_pairs(MessageType::kMigrateS, dst, outs.migr_s[dst], false);
            send_pairs(MessageType::kFragmentR, dst, outs.frag_r[dst], true);
            send_pairs(MessageType::kFragmentS, dst, outs.frag_s[dst], true);
          }
          if (final_batch) {
            // Terminate every instruction stream so holders can count.
            for (uint32_t dst = 0; dst < n; ++dst) {
              fabric.SendChunk(node, dst, MessageType::kLocationsToR,
                               ByteBuffer{}, /*eos=*/true);
              fabric.SendChunk(node, dst, MessageType::kLocationsToS,
                               ByteBuffer{}, /*eos=*/true);
              if (four_phase) {
                fabric.SendChunk(node, dst, MessageType::kMigrateR,
                                 ByteBuffer{}, /*eos=*/true);
                fabric.SendChunk(node, dst, MessageType::kMigrateS,
                                 ByteBuffer{}, /*eos=*/true);
                fabric.SendChunk(node, dst, MessageType::kFragmentR,
                                 ByteBuffer{}, /*eos=*/true);
                fabric.SendChunk(node, dst, MessageType::kFragmentS,
                                 ByteBuffer{}, /*eos=*/true);
              }
            }
          }
          return Status::OK();
        },
        {{"range_lo", static_cast<int64_t>(lo)},
         {"range_hi",
          final_batch ? int64_t{-1} : static_cast<int64_t>(hi)}});
  };

  auto advance_frontier = [&](uint32_t node) {
    PipelineNodeState& st = nodes[node];
    uint64_t bound = kStreamDone;
    for (const TrackStream& stream : st.streams_r) {
      bound = std::min(bound, stream.Bound());
    }
    for (const TrackStream& stream : st.streams_s) {
      bound = std::min(bound, stream.Bound());
    }
    const bool final_batch = bound == kStreamDone;
    if (final_batch ? st.final_batch_posted : bound <= st.frontier) return;

    bool batch_empty = true;
    auto take_below = [&](std::vector<TrackStream>& streams) {
      TrackRuns runs;
      for (TrackStream& stream : streams) {
        std::vector<TrackEntry> run = stream.TakeBelow(bound, final_batch);
        if (run.empty()) continue;
        runs.push_back(std::move(run));
        batch_empty = false;
      }
      return runs;
    };
    TrackRuns runs_r = take_below(st.streams_r);
    TrackRuns runs_s = take_below(st.streams_s);
    const uint64_t lo = st.frontier;
    st.frontier = bound;
    if (final_batch) st.final_batch_posted = true;
    // Empty mid-stream ranges schedule nothing; the final range always
    // runs so instruction EOS goes out even for empty trackers.
    if (!final_batch && batch_empty) return;
    post_schedule_batch(node, lo, bound, final_batch, std::move(runs_r),
                        std::move(runs_s));
  };

  auto on_tracking = [&](const Chunk& chunk) -> Status {
    PipelineNodeState& st = nodes[chunk.dst];
    fabric.ChargeCpuBytes(chunk.data.size());
    TrackStream& stream = (chunk.type == MessageType::kTrackR
                               ? st.streams_r
                               : st.streams_s)[chunk.src];
    const size_t size = chunk.data.size();
    if (size % track_entry_bytes != 0) {
      return Status::Corruption("tracking chunk not a multiple of entry size");
    }
    // Decode straight into the stream's flat pending vector, counting key
    // descents (against the stream's last key, across chunks) instead of
    // branching on them.
    const size_t base = stream.pending.size();
    stream.pending.resize(base + size / track_entry_bytes);
    TrackEntry* out = stream.pending.data() + base;
    uint64_t prev = stream.last_key;
    uint64_t descents = 0;
    for (size_t pos = 0; pos < size; pos += track_entry_bytes, ++out) {
      track_layout.Decode(chunk.data.data(), pos, size, &out->key,
                          &out->count);
      out->node = chunk.src;
      descents += out->key < prev;
      prev = out->key;
    }
    if (descents != 0) {
      return Status::Corruption("tracking stream from node " +
                                std::to_string(chunk.src) +
                                " descends: keys must arrive ascending");
    }
    stream.last_key = prev;
    if (size != 0) {
      stream.started = true;
      stream.watermark = chunk.watermark;
    }
    if (chunk.eos) stream.eos = true;
    advance_frontier(chunk.dst);
    return Status::OK();
  };
  fabric.OnChunk(MessageType::kTrackR, "track", on_tracking);
  fabric.OnChunk(MessageType::kTrackS, "track", on_tracking);

  // --- Holder role: act on instruction chunks as they arrive. ---
  auto close_data_streams = [&](uint32_t node) {
    PipelineNodeState& st = nodes[node];
    if (st.data_eos_sent || st.instr_eos < expected_instr_eos) return;
    st.data_eos_sent = true;
    for (uint32_t dst = 0; dst < n; ++dst) {
      fabric.SendChunk(node, dst, MessageType::kDataR, ByteBuffer{},
                       /*eos=*/true);
      fabric.SendChunk(node, dst, MessageType::kDataS, ByteBuffer{},
                       /*eos=*/true);
      if (four_phase) {
        fabric.SendChunk(node, dst, MessageType::kMigrationDataR,
                         ByteBuffer{}, /*eos=*/true);
        fabric.SendChunk(node, dst, MessageType::kMigrationDataS,
                         ByteBuffer{}, /*eos=*/true);
      }
    }
  };

  // Routes each instructed key's home run and streams the rows out. Used
  // for selective-broadcast locations, migrations and hot-split fragments —
  // the only differences are the outgoing data type, that migrations never
  // route to self, and that a fragment instruction splits the run across
  // its workers instead of copying it whole.
  auto route_and_send = [&](const Chunk& chunk, const TupleBlock& block,
                            uint32_t row_width,
                            MessageType data_type) -> Status {
    PipelineNodeState& st = nodes[chunk.dst];
    std::vector<KeyNodePair>& pairs = st.pairs;
    TJ_RETURN_IF_ERROR(TryDecodeKeyNodePairs(chunk.data, config, &pairs));
    std::vector<std::vector<uint32_t>>& rows = st.route_rows;
    rows.resize(n);
    for (std::vector<uint32_t>& dst_rows : rows) dst_rows.clear();
    RouteInstructedRows(block, pairs,
                        chunk.type == MessageType::kFragmentR ||
                            chunk.type == MessageType::kFragmentS,
                        &rows);
    for (uint32_t step = 0; step < n; ++step) {
      const uint32_t dst = fan_out_dst(chunk.dst, step);
      if (rows[dst].empty()) continue;
      ByteBuffer buf = st.pool.Acquire();
      block.SerializeRowsIndexed(rows[dst], config.key_bytes, &buf);
      fabric.ChargeCpuBytes(buf.size());
      send_sliced_data(chunk.dst, dst, data_type, buf, row_width);
      st.pool.Recycle(std::move(buf));
    }
    return Status::OK();
  };

  auto on_instruction = [&](const Chunk& chunk) -> Status {
    PipelineNodeState& st = nodes[chunk.dst];
    fabric.ChargeCpuBytes(chunk.data.size());
    if (!chunk.data.empty()) {
      switch (chunk.type) {
        case MessageType::kLocationsToR:
          TJ_RETURN_IF_ERROR(
              route_and_send(chunk, st.r, width_r, MessageType::kDataR));
          break;
        case MessageType::kLocationsToS:
          TJ_RETURN_IF_ERROR(
              route_and_send(chunk, st.s, width_s, MessageType::kDataS));
          break;
        case MessageType::kMigrateR:
          TJ_RETURN_IF_ERROR(route_and_send(chunk, st.r, width_r,
                                            MessageType::kMigrationDataR));
          break;
        case MessageType::kMigrateS:
          TJ_RETURN_IF_ERROR(route_and_send(chunk, st.s, width_s,
                                            MessageType::kMigrationDataS));
          break;
        case MessageType::kFragmentR:
          TJ_RETURN_IF_ERROR(route_and_send(chunk, st.r, width_r,
                                            MessageType::kMigrationDataR));
          break;
        case MessageType::kFragmentS:
          TJ_RETURN_IF_ERROR(route_and_send(chunk, st.s, width_s,
                                            MessageType::kMigrationDataS));
          break;
        default:
          return Status::Internal("unexpected instruction chunk type");
      }
    }
    if (chunk.eos) {
      ++st.instr_eos;
      close_data_streams(chunk.dst);
    }
    return Status::OK();
  };
  fabric.OnChunk(MessageType::kLocationsToR, "transfer", on_instruction);
  fabric.OnChunk(MessageType::kLocationsToS, "transfer", on_instruction);
  if (four_phase) {
    fabric.OnChunk(MessageType::kMigrateR, "transfer", on_instruction);
    fabric.OnChunk(MessageType::kMigrateS, "transfer", on_instruction);
    fabric.OnChunk(MessageType::kFragmentR, "transfer", on_instruction);
    fabric.OnChunk(MessageType::kFragmentS, "transfer", on_instruction);
  }

  // --- Joiner role: incremental symmetric join on arrival. Each pair is
  // produced exactly once, when its second element arrives (home rows
  // count as having arrived first; broadcast and migration rows pair with
  // everything already present and are then indexed for later arrivals).
  auto on_data = [&](const Chunk& chunk) -> Status {
    PipelineNodeState& st = nodes[chunk.dst];
    fabric.ChargeCpuBytes(chunk.data.size());
    if (!chunk.data.empty()) {
      const JoinSink& sink = outputs.Sink(chunk.dst);
      uint64_t produced = 0;
      // Pairs the rows this chunk appends to `block` with every matching
      // row already present on the other side: the home block (if any)
      // through a forward cursor, since chunks are key-sorted, and the
      // received block through its lazy chained index, caught up once per
      // chunk. Each arriving row is one key group against its home range
      // and one 1x1 group per received match.
      auto pair_arrivals = [&](TupleBlock& block, bool block_is_r,
                               const TupleBlock* home,
                               const TupleBlock& received,
                               KeyedRows& received_rows) -> Status {
        const uint64_t first = block.size();
        ByteReader reader(chunk.data);
        TJ_RETURN_IF_ERROR(
            block.TryDeserializeRows(&reader, config.key_bytes));
        auto emit = [&](uint64_t key, uint64_t row, const TupleBlock& other,
                        uint64_t lo, uint64_t hi) {
          if (lo == hi) return;
          if (block_is_r) {
            sink(key, block.Run(row, row + 1), other.Run(lo, hi));
          } else {
            sink(key, other.Run(lo, hi), block.Run(row, row + 1));
          }
          produced += hi - lo;
        };
        std::optional<EqualRangeCursor> home_rows;
        if (home != nullptr) home_rows.emplace(*home);
        received_rows.CatchUp(received);
        for (uint64_t row = first; row < block.size(); ++row) {
          const uint64_t key = block.Key(row);
          if (home_rows) {
            auto [lo, hi] = home_rows->Seek(key);
            emit(key, row, *home, lo, hi);
          }
          received_rows.ForEachRow(key, [&](uint32_t match) {
            emit(key, row, received, match, match + 1);
          });
        }
        return Status::OK();
      };
      switch (chunk.type) {
        case MessageType::kDataR:
          TJ_RETURN_IF_ERROR(pair_arrivals(st.in_r, true, &st.s, st.mig_s,
                                           st.mig_s_rows));
          break;
        case MessageType::kDataS:
          TJ_RETURN_IF_ERROR(pair_arrivals(st.in_s, false, &st.r, st.mig_r,
                                           st.mig_r_rows));
          break;
        case MessageType::kMigrationDataR:
          TJ_RETURN_IF_ERROR(pair_arrivals(st.mig_r, true, nullptr, st.in_s,
                                           st.in_s_rows));
          break;
        case MessageType::kMigrationDataS:
          TJ_RETURN_IF_ERROR(pair_arrivals(st.mig_s, false, nullptr, st.in_r,
                                           st.in_r_rows));
          break;
        default:
          return Status::Internal("unexpected data chunk type");
      }
      fabric.ChargeCpuBytes(produced * (config.key_bytes + out_width));
    }
    if (chunk.eos) ++st.data_eos;
    return Status::OK();
  };
  fabric.OnChunk(MessageType::kDataR, "join", on_data);
  fabric.OnChunk(MessageType::kDataS, "join", on_data);
  if (four_phase) {
    fabric.OnChunk(MessageType::kMigrationDataR, "join", on_data);
    fabric.OnChunk(MessageType::kMigrationDataS, "join", on_data);
  }

  Status run_status = fabric.Run();

  auto fill_diagnostics = [&](const FailureReport& report) {
    if (config.diagnostics == nullptr) return;
    config.diagnostics->failure = report;
    config.diagnostics->traffic = fabric.traffic();
    config.diagnostics->phase_seconds = PhaseSeconds(fabric.steps());
  };
  if (!run_status.ok()) {
    fill_diagnostics(fabric.failure());
    return run_status;
  }

  // Completeness: every stream must have terminated. A crashed node's
  // streams never do — that is the pipelined analog of the barrier
  // driver's fail-stop DataLoss.
  for (uint32_t node = 0; node < n; ++node) {
    const PipelineNodeState& st = nodes[node];
    bool complete = st.instr_eos == expected_instr_eos &&
                    st.data_eos == expected_data_eos;
    for (uint32_t src = 0; src < n && complete; ++src) {
      complete = st.streams_r[src].eos && st.streams_s[src].eos;
    }
    if (!complete) {
      fill_diagnostics(fabric.failure());
      return Status::DataLoss(
          "pipelined run incomplete at node " + std::to_string(node) +
          ": one or more chunk streams never terminated (crashed sender?)");
    }
  }

  JoinResult result;
  result.traffic = fabric.traffic();
  result.reliability = fabric.reliability();
  result.makespan_seconds = fabric.makespan_seconds();

  // One step per stage, with modeled CPU seconds in the wall column
  // (stages overlap, so these steps do NOT add up to the makespan — that
  // is the whole point).
  StepProfile profile;
  if (version == TrackJoinVersion::k2Phase) {
    profile.algorithm = direction == Direction::kRtoS ? "2tj-r-p" : "2tj-s-p";
  } else {
    profile.algorithm = four_phase ? "4tj-p" : "3tj-p";
  }
  profile.num_nodes = n;
  profile.steps = fabric.steps();
  profile.run_max_node_bytes = result.traffic.MaxNodeBytes();
  result.SetProfile(std::move(profile));
  result.barrier_makespan_seconds = BarrierSeconds(result.profile.steps);

  if (config.collect_blame) {
    result.blame = BuildBlameReport(fabric, config.blame_top_edges);
    result.blame->algorithm = result.profile.algorithm;
  }

  outputs.MoveInto(&result);
  return result;
}

}  // namespace tj
