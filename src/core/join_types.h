// Shared types of the distributed join algorithms.
#ifndef TJ_CORE_JOIN_TYPES_H_
#define TJ_CORE_JOIN_TYPES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/kway_merge.h"
#include "common/status.h"
#include "exec/local_join.h"
#include "net/failure.h"
#include "net/fault_injector.h"
#include "net/message.h"
#include "net/traffic.h"
#include "obs/blame.h"
#include "obs/step_profile.h"
#include "storage/table.h"

namespace tj {

/// Selective-broadcast direction: which table's tuples travel.
enum class Direction : uint8_t {
  kRtoS,  ///< R tuples are sent to the locations of matching S tuples.
  kStoR,  ///< S tuples are sent to the locations of matching R tuples.
};

/// Which track-join variant runs (see core/track_join.h for the taxonomy).
/// Lives here so the shared per-key planner (core/schedule.h) and both the
/// barrier and pipelined drivers can name the variant without a header cycle.
enum class TrackJoinVersion : uint8_t { k2Phase = 2, k3Phase = 3, k4Phase = 4 };

/// Event-driven micro-batch execution knobs (the pipelined track join;
/// see core/pipelined_track_join.h and net/pipelined_fabric.h).
struct PipelineConfig {
  /// No library code reads this: callers pick the driver by entry point
  /// (TryRunPipelinedTrackJoin or TryRunTrackJoin). Only tjsim reads it,
  /// to choose that entry point for --pipeline; elsewhere it is a label.
  bool enabled = false;
  /// Target micro-batch chunk payload size. Tracking streams and tuple data
  /// are sliced at entry/row boundaries at (at most) this many bytes.
  uint64_t chunk_bytes = 1 << 12;
  /// Per-node inbox memory budget enforced by credit-based flow control:
  /// each incoming link gets a byte window of
  /// max(chunk_bytes, inbox_budget_bytes / num_nodes).
  uint64_t inbox_budget_bytes = 1 << 15;
  /// Modeled CPU throughput (bytes touched per second) used to price tasks
  /// on the pipelined fabric's per-node serial CPU resource. Paired with
  /// the NIC bandwidth of net/time_model.h, it makes the modeled makespan
  /// fully deterministic. See PipelineCostModel.
  double cpu_bandwidth_bytes_per_sec = 0.25e9;
  /// Egress NIC scheduling policy (net/pipelined_fabric.h): false = the
  /// original single-FIFO eager reservation, true = per-destination queues
  /// drained by deficit round-robin. Timing-only; ledgers are identical.
  bool drr = false;
  /// DRR byte quantum per destination queue per top-up round; 0 means one
  /// chunk_bytes. Only meaningful when `drr` is set.
  uint64_t drr_quantum_bytes = 0;
};

/// Serialization widths and feature toggles shared by all join algorithms.
struct JoinConfig {
  /// Serialized join-key width wk in bytes. Keys must fit.
  uint32_t key_bytes = 4;
  /// Tracking count width c in bytes (3-/4-phase). Counts larger than the
  /// field saturate into repeated entries, aggregated at the tracker.
  uint32_t count_bytes = 1;
  /// Node-id width in bytes; the paper's location-message size M is
  /// key_bytes + node_bytes.
  uint32_t node_bytes = 1;

  // --- Section 2.4 traffic-compression toggles (default off) ---
  /// Delta-encode sorted key streams in tracking messages.
  bool delta_tracking = false;
  /// Group location messages by node (send the node label once).
  bool group_locations = false;

  /// Balance-aware scheduling (paper Section 5): break cost ties in the
  /// per-key schedules toward the least-loaded nodes. Total traffic is
  /// unchanged; the bottleneck NIC's share shrinks. 4-phase only.
  bool balance_loads = false;

  /// Heavy-hitter splitting (SharesSkew-style partitioned broadcast),
  /// 4-phase only. A key whose modeled output r_rows * s_rows reaches this
  /// threshold is a hot-split candidate: its smaller side is broadcast to w
  /// worker nodes while the larger side is fragmented across them, trading
  /// bounded extra broadcast bytes for a ~w x drop in the worst node's
  /// ingress and join work. 0 disables splitting entirely (default); the
  /// hot plan is adopted only when its per-node bottleneck strictly beats
  /// both the migration plan and plain selective broadcast.
  uint64_t hot_key_threshold = 0;
  /// Upper bound on the split width w (worker count per hot key);
  /// 0 = no cap beyond the number of fragment-side holder nodes.
  uint32_t hot_key_max_split = 4;

  /// Materialize the join output: the result carries a PartitionedTable of
  /// <key | payloadR | payloadS> rows, resident where each pair joined.
  /// Off by default (results are still checksum-verified either way).
  bool materialize = false;

  /// If non-null, phases run their per-node work on this pool (results
  /// are identical to sequential execution). Not owned.
  class ThreadPool* thread_pool = nullptr;

  /// If non-null, the track-join scheduling phase records one
  /// KeyScheduleAudit per distinct key into this log (core/schedule.h) for
  /// `tjsim --explain` / BuildScheduleExplain. Strictly passive: schedules,
  /// results and traffic are identical with or without it. Not owned; the
  /// log is Reset() at the start of each run that uses it.
  class ScheduleAuditLog* schedule_audit = nullptr;

  /// If non-null and active(), the run's fabric injects these faults
  /// (seeded with fault_seed) and recovers via the framed nack/retransmit
  /// protocol; unrecoverable loss fails the query with Status::DataLoss.
  /// Null or inactive keeps the byte-identical pristine path. Not owned.
  const FaultPolicy* fault_policy = nullptr;
  uint64_t fault_seed = 0;

  /// If non-null, a failed run fills this with the fabric's structured
  /// failure report plus the partial attempt's traffic and phase times
  /// (net/failure.h) — the machine-readable side of the error Status.
  /// Strictly an error-path output; untouched on success. Not owned.
  RunDiagnostics* diagnostics = nullptr;

  /// Modeled per-phase deadline in seconds (0 disables): a straggler whose
  /// modeled slowdown exceeds it is promoted to suspected-dead and the
  /// phase fails with DeadlineExceeded. See Fabric::SetPhaseDeadline.
  double phase_deadline_seconds = 0;

  /// Event-driven micro-batch execution (pipelined track join). Off by
  /// default; tjsim's --pipeline flag enables it. Requires the plain wire
  /// format (delta_tracking / group_locations off), because micro-batch
  /// chunking relies on entry-aligned, context-free encodings.
  PipelineConfig pipeline;

  /// Pipelined runs only: attach a critical-path BlameReport
  /// (obs/blame.h) to JoinResult::blame after a successful run. Strictly
  /// passive — it only reads the fabric's always-on timing records, so
  /// traffic, checksums and EXPLAIN output are byte-identical either way.
  bool collect_blame = false;
  /// Critical-path edges retained in the report's top-K listing.
  uint64_t blame_top_edges = 20;

  /// Location-message size M in bytes, as used by the per-key scheduler.
  uint64_t MsgBytes() const { return key_bytes + node_bytes; }
};

/// Outcome of a distributed join run: verified output fingerprint, full
/// traffic matrix and per-phase wall-clock breakdown.
struct JoinResult {
  uint64_t output_rows = 0;
  /// Rows produced at each node (sums to output_rows). The max element is
  /// the modeled per-node compute bottleneck the skew ablations report.
  /// Filled by every driver.
  std::vector<uint64_t> node_output_rows;
  JoinChecksum checksum;
  TrafficMatrix traffic;
  /// Named per-phase wall times (CPU-side work), in execution order: the
  /// wall-time projection of profile.steps, set with it by SetProfile.
  std::vector<std::pair<std::string, double>> phase_seconds;
  /// The materialized output (JoinConfig::materialize): one
  /// <key | payloadR | payloadS> row per joined pair, partitioned across
  /// the nodes where the pairs were produced.
  std::optional<PartitionedTable> output;
  /// Injected-fault and recovery-protocol counters for the run (all-zero
  /// without an active fault policy).
  ReliabilityStats reliability;
  /// The de-pipelined step breakdown: one record per phase with wall
  /// seconds, modeled network seconds, and goodput/local/retransmit byte
  /// splits (obs/step_profile.h).
  StepProfile profile;
  /// Pipelined runs only (else 0): modeled end-to-end makespan — the
  /// critical path through the event-driven schedule — and the
  /// barrier-equivalent reference, BarrierSeconds(profile.steps) (sum over
  /// stages of max-node CPU + max-NIC transfer time).
  double makespan_seconds = 0;
  double barrier_makespan_seconds = 0;
  /// Pipelined runs with JoinConfig::collect_blame: the critical-path
  /// decomposition of makespan_seconds into (node, resource, stage,
  /// wait-class) buckets, reconciled exactly against pipeline.makespan_us.
  std::optional<BlameReport> blame;

  /// Installs `steps_profile` and derives phase_seconds from its steps.
  void SetProfile(StepProfile steps_profile) {
    profile = std::move(steps_profile);
    phase_seconds = PhaseSeconds(profile.steps);
  }
};

/// The algorithms under evaluation (the seven bars of Figures 3-8).
enum class JoinAlgorithm : uint8_t {
  kBroadcastR,   ///< BJ-R: broadcast R to every node.
  kBroadcastS,   ///< BJ-S: broadcast S to every node.
  kHash,         ///< HJ: Grace hash join over the network.
  kTrack2R,      ///< 2TJ-R: 2-phase track join, R -> S.
  kTrack2S,      ///< 2TJ-S: 2-phase track join, S -> R.
  kTrack3,       ///< 3TJ: per-key broadcast direction.
  kTrack4,       ///< 4TJ: per-key migration + broadcast (optimal).
};

const char* JoinAlgorithmName(JoinAlgorithm algorithm);

class Fabric;
class PipelinedFabric;

/// Applies the run-wide knobs of `config` to a barrier fabric: thread pool,
/// fault policy and seed, phase deadline and diagnostics sink.
void ConfigureFabric(const JoinConfig& config, Fabric* fabric);

/// Drivers that put node ids on the wire (location, migration and rid
/// messages) write them at config.node_bytes. Returns InvalidArgument when
/// the largest id, num_nodes - 1, does not fit: a truncated id would route
/// rows to the wrong node and silently lose output.
Status CheckNodeIdWidth(const JoinConfig& config, uint32_t num_nodes);

/// The narrowest node_bytes that holds every id of a `num_nodes` cluster
/// (1 up to 256 nodes, 2 up to 65536), which CheckNodeIdWidth accepts.
uint32_t NodeIdBytes(uint32_t num_nodes);

/// Sends the rows of `block` listed per destination node as one message per
/// destination, in destination order. Empty destinations send nothing.
void SendRowsPerDest(Fabric* fabric, uint32_t src, MessageType type,
                     const TupleBlock& block, uint32_t key_bytes,
                     const std::vector<std::vector<uint32_t>>& rows_per_dest);

/// Takes node `node`'s inbox of `type` and appends the rows of every
/// message, in delivery order, to `block`.
Status TryReceiveRows(Fabric* fabric, uint32_t node, MessageType type,
                      uint32_t key_bytes, TupleBlock* block);

/// Borrowed bytes of one received data run: rows in the wire format
/// SendRowsPerDest writes (`key_bytes` + payload width bytes each).
using RunBytes = std::span<const uint8_t>;

/// The bytes of each message, borrowed, in order.
std::vector<RunBytes> BytesOf(const std::vector<Message>& messages);

/// Checks one received data run, sent by node `src`, before anything reads
/// it: it must hold a whole number of rows of `key_bytes` + `payload_width`
/// bytes, with keys ascending. Returns Status::Corruption naming `src`
/// otherwise.
Status TryCheckReceivedRun(RunBytes run, uint32_t src, uint32_t key_bytes,
                           uint32_t payload_width);

/// TryCheckReceivedRun on each message in order: the first one that fails
/// decides the Status.
Status TryCheckReceivedRuns(const std::vector<Message>& messages,
                            uint32_t key_bytes, uint32_t payload_width);

/// One table's rows at one node as a final join reads them: a kept run,
/// rows [first, last) of a block sorted by key on that range, then
/// key-ascending received runs, merged by key as they are read. Cursors
/// read every run in place and seek with GallopPast: the kept run's is
/// walked directly, the received runs' go through a loser tree. The view
/// yields one key group at a time, its ties in run order (the kept rows
/// first, then the received runs in the order given), which is the order
/// a stable sort of their concatenation gives. A group held by one run is
/// handed out in place; a group spread over several runs is gathered into
/// the view's scratch, which grows to the largest such group. The block
/// and the received bytes must outlive the view, and every received run
/// must pass TryCheckReceivedRun.
class MergedRuns {
 public:
  /// `kept` may be null (no kept rows; `first` and `last` are then
  /// ignored). `runs` itself need not outlive the view.
  MergedRuns(const TupleBlock* kept, uint64_t first, uint64_t last,
             std::span<const RunBytes> runs, uint32_t key_bytes,
             uint32_t payload_width);
  /// Re-seats the view on other runs of the same widths, as if newly
  /// constructed, reusing its storage.
  void Reset(const TupleBlock* kept, uint64_t first, uint64_t last,
             std::span<const RunBytes> runs);
  // The tree points into the cursors.
  MergedRuns(const MergedRuns&) = delete;
  MergedRuns& operator=(const MergedRuns&) = delete;

  /// Rows in all runs.
  uint64_t rows() const { return rows_; }
  /// True once every row has been taken or skipped.
  bool Done() const { return kept_row_ == kept_end_ && tree_.Done(); }
  /// The next group's key. Done() must be false.
  uint64_t key() const {
    return KeptFirst() ? kept_keys_[kept_row_] : tree_.TopKey();
  }
  /// Skips every row whose key is below `key`.
  void SkipBelow(uint64_t key);
  /// Takes the next group, every row of key(): its payloads in merge order,
  /// valid until the next call. Done() must be false.
  PayloadRun TakeGroup();

 private:
  /// Merge cursor over one received run's rows, read in place; caches its
  /// head's key.
  class WireRowCursor {
   public:
    WireRowCursor(RunBytes data, uint32_t key_bytes, uint32_t row_bytes)
        : row_(data.data()), end_(data.data() + data.size()),
          key_bytes_(key_bytes), row_bytes_(row_bytes) {
      if (Valid()) LoadKey();
    }

    bool Valid() const { return row_ != end_; }
    uint64_t key() const { return key_; }
    void Next() {
      row_ += row_bytes_;
      if (Valid()) LoadKey();
    }
    /// Moves the cursor past every row whose key is below `key`, galloping
    /// (the rows past the end fail the test, so no division counts them).
    void SkipBelow(uint64_t key) {
      const uint8_t* rows = row_;
      const uint64_t bytes = end_ - rows;
      row_ += row_bytes_ * GallopPast(0, ~uint64_t{0}, [&](uint64_t i) {
        const uint64_t at = i * row_bytes_;
        return at < bytes &&
               LoadLeField(rows + at, bytes - at, key_bytes_) < key;
      });
      if (Valid()) LoadKey();
    }
    /// The payloads of the head's rows of `key`, in place; moves the cursor
    /// past them. Valid() and key() == `key` required.
    PayloadRun Take(uint64_t key, uint32_t width) {
      const uint8_t* first = row_ + key_bytes_;
      uint64_t count = 0;
      do {
        Next();
        ++count;
      } while (Valid() && key_ == key);
      return PayloadRun(first, width, count, nullptr, row_bytes_);
    }

   private:
    void LoadKey() { key_ = LoadLeField(row_, end_ - row_, key_bytes_); }

    const uint8_t* row_;
    const uint8_t* end_;
    uint32_t key_bytes_;
    uint32_t row_bytes_;
    uint64_t key_ = 0;
  };

  /// True when the kept run holds the next row: ties go to it. A drained
  /// tree's top key is ~0, which no kept key passes.
  bool KeptFirst() const {
    return kept_row_ < kept_end_ && kept_keys_[kept_row_] <= tree_.TopKey();
  }

  uint32_t key_bytes_;
  uint32_t width_;
  /// The kept run: rows [kept_row_, kept_end_) of *kept_ are still to
  /// come; `kept_keys_` is its key column.
  const TupleBlock* kept_;
  const uint64_t* kept_keys_;
  uint64_t kept_row_;
  uint64_t kept_end_;
  uint64_t rows_;
  std::vector<WireRowCursor> cursors_;
  LoserTree<WireRowCursor> tree_;
  std::vector<uint8_t> scratch_;
};

/// Merge join of two merged views (the R side first), handing `sink` each
/// key's R group and S group. Returns the output cardinality. On the same
/// rows it delivers the same groups, in the same order and with the same
/// payload order, as MergeJoinSorted over the views drained into blocks.
uint64_t MergeJoinRuns(MergedRuns* r, MergedRuns* s, const JoinSink& sink);

/// Merges the rows of `messages` into `block` (sorted by key), leaving it
/// sorted by key: a drain of the MergedRuns view over them, so the result
/// equals appending every message in order and stably sorting. Messages
/// that fail TryCheckReceivedRuns return its Status::Corruption and leave
/// `block` unchanged.
Status TryMergeReceivedRows(const std::vector<Message>& messages,
                            uint32_t key_bytes, TupleBlock* block);

/// The output side every driver shares. Each node owns one slot: a
/// JoinChecksum, whose count() is the node's output row count, under
/// JoinConfig::materialize the node's <key | payloadR | payloadS> rows, and
/// the group sink that fills them, built once per run. Slots sit on
/// separate cache lines, because thread-pooled phases fill different
/// nodes' slots at once.
class JoinOutputs {
 public:
  JoinOutputs(const PartitionedTable& r, const PartitionedTable& s,
              const JoinConfig& config);
  // Sinks point into the slots.
  JoinOutputs(const JoinOutputs&) = delete;
  JoinOutputs& operator=(const JoinOutputs&) = delete;

  /// The sink node `node`'s local join feeds its key groups.
  const JoinSink& Sink(uint32_t node) const { return slots_[node].sink; }

  /// Moves the outputs into `result`: output_rows, node_output_rows,
  /// checksum and, when materialized, output.
  void MoveInto(JoinResult* result);

 private:
  struct alignas(64) Slot {
    JoinChecksum checksum;
    TupleBlock rows{0};
    JoinSink sink;
  };
  std::string output_name_;
  uint32_t width_r_;
  uint32_t width_s_;
  bool materialize_;
  std::vector<Slot> slots_;
};

/// Every driver's epilogue, on either fabric (Fabric or PipelinedFabric):
/// the fabric's reliability, phase times and step profile (named
/// `algorithm`), its traffic moved into the result, and the moved outputs.
template <typename AnyFabric>
JoinResult FinishJoin(const char* algorithm, AnyFabric* fabric,
                      JoinOutputs* outputs);

/// The track-join variant's algorithm name: "2tj-r", "2tj-s", "3tj" or
/// "4tj".
const char* TrackJoinName(TrackJoinVersion version, Direction direction);

}  // namespace tj

#endif  // TJ_CORE_JOIN_TYPES_H_
