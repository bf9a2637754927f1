#include "core/pipelined_track_join.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/local_join.h"
#include "exec/partition.h"
#include "net/pipelined_fabric.h"
#include "obs/step_profile.h"

namespace tj {

namespace {

/// Frontier bound of a fully-delivered stream: past every possible key.
constexpr uint64_t kStreamDone = ~0ULL;

/// Key-ascending runs of tracker entries, one per stream with entries in
/// the batch's key range.
using TrackRuns = std::vector<std::vector<TrackEntry>>;

/// The runs as the views TryMergeTrackRuns merges.
std::vector<std::span<const TrackEntry>> Views(const TrackRuns& runs) {
  return {runs.begin(), runs.end()};
}

/// One tracker-side incoming tracking stream (one source, one table): its
/// chunks, checked on arrival and kept as wire bytes until a frontier batch
/// decodes them. `watermark` promises no later chunk carries a key strictly
/// below it.
struct TrackStream {
  TrackingChunkStream chunks;
  uint64_t watermark = 0;
  bool started = false;
  bool eos = false;

  /// Keys strictly below the bound are final for this stream.
  uint64_t Bound() const {
    if (eos) return kStreamDone;
    return started ? watermark : 0;
  }
};

/// One tracker's received data runs of one kind and table, kept as wire
/// bytes for later arrivals of the opposite kind, sorted by last key so an
/// arrival skips the runs that end below it. A chunk under half of
/// kKeptRunBytes joins a run of its source's that ends at or below its
/// first key while both fit, so small chunks do not each become a run to
/// open; a default-size chunk stays a run of its own.
class KeptRuns {
 public:
  /// Sets `met` to the bytes of every run holding keys in [first, last].
  void Overlapping(uint64_t first, uint64_t last,
                   std::vector<RunBytes>* met) const {
    met->clear();
    for (auto run = std::lower_bound(runs_.begin(), runs_.end(), first,
                                     [](const Run& kept, uint64_t key) {
                                       return kept.last < key;
                                     });
         run != runs_.end(); ++run) {
      if (run->first <= last) met->emplace_back(run->bytes);
    }
  }

  /// Keeps `bytes`, a checked run from node `src` with keys [first, last].
  void Keep(uint32_t src, uint64_t first, uint64_t last, ByteBuffer bytes) {
    auto by_last = [](uint64_t key, const Run& kept) {
      return key < kept.last;
    };
    // The runs before `end` end at or below `first`.
    const auto end = std::upper_bound(runs_.begin(), runs_.end(), first,
                                      by_last);
    for (auto run = end;
         bytes.size() < kKeptRunBytes / 2 && run != runs_.begin();) {
      if ((--run)->src != src) continue;
      if (run->bytes.size() + bytes.size() > kKeptRunBytes) break;
      run->bytes.insert(run->bytes.end(), bytes.begin(), bytes.end());
      run->last = last;
      std::rotate(run, run + 1,
                  std::upper_bound(run + 1, runs_.end(), last, by_last));
      return;
    }
    runs_.insert(std::upper_bound(end, runs_.end(), last, by_last),
                 Run{src, first, last, std::move(bytes)});
  }

 private:
  static constexpr uint64_t kKeptRunBytes = 4096;
  struct Run {
    uint32_t src;
    uint64_t first;
    uint64_t last;
    ByteBuffer bytes;
  };
  std::vector<Run> runs_;
};

/// Per-node working state across all pipelined roles (source, tracker,
/// holder, joiner). Per-table arrays are indexed 0 = R, 1 = S.
struct PipelineNodeState {
  // Source role: home blocks in tracker-major order, rows [home_bounds[t],
  // home_bounds[t + 1]) being the keys tracker t tracks, sorted by key.
  // Instructions from one tracker and the data they route touch only that
  // tracker's run, so the holder and the joiner scan it densely instead of
  // striding across the whole block. Never filtered: a run that migrated or
  // fragmented away meets no broadcast of its key (DESIGN.md §3, "Moved
  // rows"), so it is never probed again.
  TupleBlock home[2] = {TupleBlock(0), TupleBlock(0)};
  std::vector<uint64_t> home_bounds[2];

  // Tracker role: per-(table, source) streams, the merge frontier, and the
  // persistent per-key planner (balance state spans frontier batches).
  std::vector<TrackStream> streams[2];
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

  // Joiner role: the data runs kept for arrivals of the opposite kind,
  // indexed [kind][table][tracker] (kind 0 = broadcast, 1 = migrated), and
  // one merged view per table with the runs an arrival meets, re-seated on
  // every arrival so that their storage is reused.
  std::vector<KeptRuns> kept[2][2];
  std::optional<MergedRuns> view[2];
  std::vector<RunBytes> met;
  uint32_t data_eos = 0;
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
  // 2-phase tracking carries keys only; every entry implies count 1.
  const bool with_counts = version != TrackJoinVersion::k2Phase;
  const PartitionedTable* tables[2] = {&r, &s};
  const uint32_t widths[2] = {config.key_bytes + r.payload_width(),
                              config.key_bytes + s.payload_width()};
  const uint32_t track_entry_bytes =
      PlainEntryLayout(config, with_counts).entry_bytes();
  const uint32_t pair_bytes = config.key_bytes + config.node_bytes;
  const std::span<const InstructionStream> streams =
      InstructionStreams(version);
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
    for (int table : {0, 1}) {
      st.streams[table].resize(n);
      for (int kind : {0, 1}) st.kept[kind][table].resize(n);
      st.view[table].emplace(nullptr, 0, 0, std::span<const RunBytes>(),
                             config.key_bytes, tables[table]->payload_width());
    }
    st.planner.emplace(config, version, direction, n, node, widths[0],
                       widths[1], audit);
  }

  JoinOutputs outputs(r, s, config);
  const uint32_t out_width = r.payload_width() + s.payload_width();

  // --- Source role: three tasks per node on its serial CPU, in order. ---
  for (uint32_t node = 0; node < n; ++node) {
    for (int table : {0, 1}) {
      const char* label = table == 0 ? "source.sort_r" : "source.sort_s";
      fabric.Post(node, "source", label, [&, node, table]() -> Status {
        // Sorted and grouped by tracker straight from the input partition,
        // with one gather of its rows.
        TJ_ASSIGN_OR_RETURN(PartitionLayout layout,
                            TrySortedRadixPartition(tables[table]->node(node),
                                                    n));
        PipelineNodeState& st = nodes[node];
        st.home[table] = std::move(layout.tuples);
        st.home_bounds[table] = std::move(layout.bounds);
        fabric.ChargeCpuBytes(st.home[table].size() * widths[table]);
        return Status::OK();
      });
    }
    fabric.Post(node, "source", "source.track", [&, node]() {
      const PipelineNodeState& st = nodes[node];
      fabric.ChargeCpuBytes((st.home[0].size() + st.home[1].size()) *
                            config.key_bytes);
      // A home run holds one tracker's keys ascending, so it is written as
      // that tracker's tracking stream as it stands.
      for (uint32_t step = 0; step < n; ++step) {
        const uint32_t dst = fan_out_dst(node, step);
        for (int table : {0, 1}) {
          const std::vector<uint64_t>& bounds = st.home_bounds[table];
          const MessageType type =
              table == 0 ? MessageType::kTrackR : MessageType::kTrackS;
          fabric.ChargeCpuBytes(WriteTrackingChunks(
              std::span<const uint64_t>(st.home[table].keys())
                  .subspan(bounds[dst], bounds[dst + 1] - bounds[dst]),
              config, with_counts, config.pipeline.chunk_bytes,
              [&](ByteBuffer data, bool eos, uint64_t watermark) {
                fabric.SendChunk(node, dst, type, std::move(data), eos,
                                 watermark);
              }));
        }
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
          TJ_RETURN_IF_ERROR(TryMergeTrackRuns(Views(runs_r), lo, &batch_r));
          TJ_RETURN_IF_ERROR(TryMergeTrackRuns(Views(runs_s), lo, &batch_s));
          fabric.ChargeCpuBytes((batch_r.size() + batch_s.size()) *
                                track_entry_bytes);

          KeyPlanOutputs outs(n);
          st.planner->PlanBatch(batch_r, batch_s, &outs);
          // Location and migration pairs go out as chunks of whole pairs,
          // each encoded straight into its own buffer with its last key for
          // watermark. A hot key's w-pair worker group stays in one chunk:
          // the fragment handler needs the whole group to cut the run into
          // w near-equal pieces.
          const uint64_t per_chunk =
              std::max<uint64_t>(1, config.pipeline.chunk_bytes / pair_bytes);
          for (uint32_t step = 0; step < n; ++step) {
            const uint32_t dst = fan_out_dst(node, step);
            for (const InstructionStream& stream : streams) {
              const std::span<const KeyNodePair> pairs =
                  (outs.*stream.pairs)[dst];
              if (pairs.empty()) continue;
              fabric.ChargeCpuBytes(pairs.size() * pair_bytes);
              const uint64_t piece_pairs = stream.split ? pairs.size()
                                                        : per_chunk;
              for (size_t first = 0; first < pairs.size();
                   first += piece_pairs) {
                const std::span<const KeyNodePair> piece = pairs.subspan(
                    first, std::min<size_t>(piece_pairs, pairs.size() - first));
                const uint64_t watermark =
                    stream.split
                        ? 0
                        : piece.back().key & FieldMask(config.key_bytes);
                fabric.SendChunk(node, dst, stream.instr,
                                 EncodeKeyNodePairs(piece, config),
                                 /*eos=*/false, watermark);
              }
            }
          }
          if (final_batch) {
            // One EOS chunk per holder ends all of this tracker's
            // instruction streams to it: the fabric delivers a link's
            // chunks in send order whatever their types. Each holder counts
            // n of them, then ends its data streams the same way.
            for (uint32_t dst = 0; dst < n; ++dst) {
              fabric.SendChunk(node, dst, streams.front().instr, ByteBuffer{},
                               /*eos=*/true);
            }
          }
          return Status::OK();
        },
        {{"range_lo", static_cast<int64_t>(lo)},
         {"range_hi",
          final_batch ? int64_t{-1} : static_cast<int64_t>(hi)}});
  };

  auto advance_frontier = [&](uint32_t node) -> Status {
    PipelineNodeState& st = nodes[node];
    uint64_t bound = kStreamDone;
    for (const std::vector<TrackStream>& table_streams : st.streams) {
      for (const TrackStream& stream : table_streams) {
        bound = std::min(bound, stream.Bound());
      }
    }
    const bool final_batch = bound == kStreamDone;
    if (final_batch ? st.final_batch_posted : bound <= st.frontier) {
      return Status::OK();
    }

    // Each stream's entries below the bound, decoded into one run.
    TrackRuns runs[2];
    for (int table : {0, 1}) {
      for (uint32_t src = 0; src < n; ++src) {
        std::vector<TrackEntry> run;
        TJ_RETURN_IF_ERROR(st.streams[table][src].chunks.TryTakeBelow(
            bound, final_batch, src, config, with_counts, &run));
        if (!run.empty()) runs[table].push_back(std::move(run));
      }
    }
    const uint64_t lo = st.frontier;
    st.frontier = bound;
    if (final_batch) st.final_batch_posted = true;
    // Empty mid-stream ranges schedule nothing; the final range always
    // runs so instruction EOS goes out even for empty trackers.
    if (!final_batch && runs[0].empty() && runs[1].empty()) {
      return Status::OK();
    }
    post_schedule_batch(node, lo, bound, final_batch, std::move(runs[0]),
                        std::move(runs[1]));
    return Status::OK();
  };

  auto on_tracking = [&](Chunk& chunk) -> Status {
    PipelineNodeState& st = nodes[chunk.dst];
    fabric.ChargeCpuBytes(chunk.data.size());
    TrackStream& stream =
        st.streams[chunk.type == MessageType::kTrackR ? 0 : 1][chunk.src];
    if (!chunk.data.empty()) {
      stream.started = true;
      stream.watermark = chunk.watermark;
    }
    TJ_RETURN_IF_ERROR(stream.chunks.TryPush(std::move(chunk.data), chunk.src,
                                             config, with_counts));
    if (chunk.eos) stream.eos = true;
    return advance_frontier(chunk.dst);
  };
  fabric.OnChunk(MessageType::kTrackR, "track", on_tracking);
  fabric.OnChunk(MessageType::kTrackS, "track", on_tracking);

  // --- Holder role: act on instruction chunks as they arrive. Each
  // instructed key's home run is routed (copied whole to its locations or
  // migration destination, or cut across a hot key's workers) and streamed
  // out as the stream's data type. ---
  auto close_data_streams = [&](uint32_t node) {
    PipelineNodeState& st = nodes[node];
    if (st.data_eos_sent || st.instr_eos < n) return;
    st.data_eos_sent = true;
    for (uint32_t dst = 0; dst < n; ++dst) {
      fabric.SendChunk(node, dst, streams.front().data, ByteBuffer{},
                       /*eos=*/true);
    }
  };
  for (const InstructionStream& stream : streams) {
    const int table = stream.r_side ? 0 : 1;
    fabric.OnChunk(stream.instr, "transfer",
                   [&, stream, table](const Chunk& chunk) -> Status {
      PipelineNodeState& st = nodes[chunk.dst];
      fabric.ChargeCpuBytes(chunk.data.size());
      if (!chunk.data.empty()) {
        const TupleBlock& block = st.home[table];
        TJ_RETURN_IF_ERROR(
            TryDecodeKeyNodePairs(chunk.data, config, &st.pairs));
        std::vector<std::vector<uint32_t>>& rows = st.route_rows;
        rows.resize(n);
        for (std::vector<uint32_t>& dst_rows : rows) dst_rows.clear();
        // The sending tracker's keys are its run of the home block.
        const std::vector<uint64_t>& bounds = st.home_bounds[table];
        RouteInstructedRows(block, bounds[chunk.src], bounds[chunk.src + 1],
                            st.pairs, stream.split, &rows);
        // Each destination's rows go out as chunks of whole rows, each
        // serialized straight into its own buffer, with the chunk's last
        // key (as the wire carries it) for watermark.
        const uint64_t per_chunk = std::max<uint64_t>(
            1, config.pipeline.chunk_bytes / widths[table]);
        for (uint32_t step = 0; step < n; ++step) {
          const uint32_t dst = fan_out_dst(chunk.dst, step);
          const std::span<const uint32_t> dst_rows(rows[dst]);
          fabric.ChargeCpuBytes(dst_rows.size() * widths[table]);
          for (size_t first = 0; first < dst_rows.size(); first += per_chunk) {
            const std::span<const uint32_t> piece = dst_rows.subspan(
                first, std::min<size_t>(per_chunk, dst_rows.size() - first));
            ByteBuffer buf;
            block.SerializeRowsIndexed(piece, config.key_bytes, &buf);
            fabric.SendChunk(chunk.dst, dst, stream.data, std::move(buf),
                             /*eos=*/false,
                             block.Key(piece.back()) &
                                 FieldMask(config.key_bytes));
          }
        }
      }
      if (chunk.eos) {
        ++st.instr_eos;
        close_data_streams(chunk.dst);
      }
      return Status::OK();
    });
  }

  // --- Joiner role: each data chunk is one key-ascending run of one
  // tracker's keys, merge-joined on arrival (MergeJoinRuns, the barrier's
  // final-join kernel, R view first) against the rows it meets. Each pair
  // is produced exactly once, when its second element arrives; home rows
  // count as having arrived first. A broadcast chunk meets the other
  // table's home run for its tracker and its migrated runs kept so far; a
  // migrated chunk meets the other table's broadcast runs kept so far. Only
  // 4-phase runs send both kinds, so only they keep the chunk afterwards.
  const bool keep = version == TrackJoinVersion::k4Phase;
  for (const InstructionStream& stream : streams) {
    if (stream.split) continue;  // Fragments arrive as migration data.
    const int table = stream.r_side ? 0 : 1;
    const int other = 1 - table;
    const int kind = stream.migrates() ? 1 : 0;
    fabric.OnChunk(stream.data, "join",
                   [&, table, other, kind](Chunk& chunk) -> Status {
      PipelineNodeState& st = nodes[chunk.dst];
      fabric.ChargeCpuBytes(chunk.data.size());
      if (chunk.eos) ++st.data_eos;
      if (chunk.data.empty()) return Status::OK();
      const RunBytes rows(chunk.data);
      TJ_RETURN_IF_ERROR(TryCheckReceivedRun(rows, chunk.src, config.key_bytes,
                                             tables[table]->payload_width()));
      const uint64_t first = LoadLeField(rows.data(), rows.size(),
                                         config.key_bytes);
      const uint64_t last = LoadLeField(rows.last(widths[table]).data(),
                                        widths[table], config.key_bytes);
      const uint32_t tracker = HashPartition(first, n);
      // The kept run is the other table's home run for the tracker, empty
      // for migrated rows, which meet no home rows.
      const uint64_t* home = st.home_bounds[other].data() + tracker;
      st.kept[1 - kind][other][tracker].Overlapping(first, last, &st.met);
      st.view[table]->Reset(nullptr, 0, 0, {&rows, 1});
      st.view[other]->Reset(&st.home[other], home[0], home[1 - kind], st.met);
      const uint64_t produced = MergeJoinRuns(&*st.view[0], &*st.view[1],
                                              outputs.Sink(chunk.dst));
      fabric.ChargeCpuBytes(produced * (config.key_bytes + out_width));
      if (keep) {
        st.kept[kind][table][tracker].Keep(chunk.src, first, last,
                                           std::move(chunk.data));
      }
      return Status::OK();
    });
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
    bool complete = st.instr_eos == n && st.data_eos == n;
    for (uint32_t src = 0; src < n && complete; ++src) {
      complete = st.streams[0][src].eos && st.streams[1][src].eos;
    }
    if (!complete) {
      fill_diagnostics(fabric.failure());
      return Status::DataLoss(
          "pipelined run incomplete at node " + std::to_string(node) +
          ": one or more chunk streams never terminated (crashed sender?)");
    }
  }

  // One step per stage, with modeled CPU seconds in the wall column
  // (stages overlap, so these steps do NOT add up to the makespan — that
  // is the whole point).
  const std::string algorithm =
      std::string(TrackJoinName(version, direction)) + "-p";
  JoinResult result = FinishJoin(algorithm.c_str(), &fabric, &outputs);
  result.makespan_seconds = fabric.makespan_seconds();
  result.barrier_makespan_seconds = BarrierSeconds(result.profile.steps);
  if (config.collect_blame) {
    result.blame = BuildBlameReport(fabric, config.blame_top_edges);
    result.blame->algorithm = algorithm;
  }
  return result;
}

}  // namespace tj
