// Event-driven simulated cluster fabric with modeled time.
//
// The barrier fabric (net/fabric.h) runs the paper's de-pipelined
// execution: every phase finishes its CPU work everywhere before any
// transfer completes, and transfers finish everywhere before the next
// phase starts. This fabric models the pipelined implementation the paper
// sketches in Section 5: work is a set of tasks on per-node serial CPUs,
// transfers stream between them as micro-batch chunks, and the end-to-end
// makespan is the critical path through the resulting schedule — CPU and
// network overlap wherever the dataflow allows.
//
// Time here is *modeled*, never measured: a task costs
// charged_bytes / cpu_bandwidth seconds, a transfer costs
// wire_bytes / NIC bandwidth seconds (PipelineCostModel), so the makespan
// is a deterministic function of the inputs and is exactly reproducible.
// Every node has one serial CPU (FIFO runnable queue), one egress NIC and
// one ingress NIC; a transfer holds both its source's egress and its
// destination's ingress for its whole duration, and src == dst sends are
// local copies that skip the NICs entirely.
//
// Flow control is credit-based per directed link: each link's in-flight
// window is max(chunk_bytes, inbox_budget_bytes / num_nodes) payload
// bytes; a chunk's credit is returned only when the receiver's handler
// task *completes*, so the window bounds receiver inbox memory (stashed
// chunks included). Senders never block — a chunk without credit waits in
// the link's queue while the sending CPU moves on (transmission is modeled
// as offloaded). Zero-byte chunks (pure EOS markers) never need credit, so
// stream termination cannot deadlock.
//
// Once granted, a chunk competes for the source egress NIC under the
// configured EgressSchedPolicy: the original single-FIFO reservation
// (kFifo) or per-destination queues drained by deficit round-robin (kDrr),
// which keeps a chunk bound for a congested destination from holding the
// NIC hostage for transfers to idle links. The policy changes modeled
// timing only — ledgers, checksums and per-link order are identical.
//
// Every directed link delivers its chunks, whatever their message types, in
// send order, and their handlers run in that order: credit waits in one
// FIFO per link, a DRR queue is per link, kFifo reserves the NIC in grant
// order, and local copies arrive as they are sent. So one end-of-stream
// chunk on a link can close every stream the sender had on it.
//
// Fault mode mirrors the barrier fabric's semantics at chunk granularity:
// chunks are framed (payload + kFrameHeaderBytes on the wire), a seeded
// deterministic RNG draws drop/corrupt/duplicate/reorder per transmission,
// lost or corrupt frames retry inline up to max_retries (occupying the NICs
// and the retransmit ledger), an exhausted budget fails the run with
// DataLoss, crash_node fail-stops from time zero, and slow_node starts its
// CPU late by slowdown_seconds. With no active policy the wire path is
// pristine and the traffic matrix is byte-identical to the barrier run.
#ifndef TJ_NET_PIPELINED_FABRIC_H_
#define TJ_NET_PIPELINED_FABRIC_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/failure.h"
#include "net/fault_injector.h"
#include "net/message.h"
#include "net/time_model.h"
#include "net/traffic.h"

namespace tj {

class Counter;
class Histogram;

/// How a node's egress NIC picks the next credit-granted chunk to transmit.
///
/// kFifo reserves the NIC pair eagerly in credit-grant order: a chunk
/// headed to a busy destination holds the egress (idle) until that ingress
/// frees, delaying every later chunk — including chunks for idle links.
/// This is the original single-FIFO behavior, kept selectable for A/B runs.
///
/// kDrr parks granted chunks in per-destination egress queues and assigns
/// the NIC work-conservingly when it is actually free: deficit round-robin
/// over the backlogged destination queues. Each top-up round adds
/// `drr_quantum_bytes` of eligibility to every backlogged queue (in
/// destination order), queues whose destination ingress is busy are skipped,
/// and ties among eligible queue fronts break oldest-grant-first — so with
/// a single destination, or an effectively infinite quantum and no ingress
/// contention, DRR reproduces FIFO timing event for event.
enum class EgressSchedPolicy { kFifo = 0, kDrr };

/// One micro-batch: a bounded slice of a typed (src, dst) stream.
/// `watermark` is the stream's progress marker (for key-ordered streams,
/// the last key in the chunk); `eos` marks the stream's final chunk (which
/// may carry zero payload bytes).
struct Chunk {
  uint32_t src = 0;
  uint32_t dst = 0;
  MessageType type = MessageType::kTrackR;
  ByteBuffer data;
  bool eos = false;
  uint64_t watermark = 0;
};

class PipelinedFabric {
 public:
  struct Params {
    uint32_t num_nodes = 1;
    PipelineCostModel cost;
    /// Target chunk payload size (drivers slice streams at entry
    /// boundaries around this many bytes).
    uint64_t chunk_bytes = 1 << 12;
    /// Per-node inbox budget enforced by the per-link credit windows.
    uint64_t inbox_budget_bytes = 1 << 15;
    /// Optional fault policy (not owned); nullptr or inactive keeps the
    /// pristine byte-identical wire path.
    const FaultPolicy* fault_policy = nullptr;
    uint64_t fault_seed = 0;
    /// Egress NIC scheduling policy. Only modeled *timing* depends on it:
    /// traffic matrices, checksums and per-stream delivery order are
    /// byte-identical across policies by construction.
    EgressSchedPolicy egress_policy = EgressSchedPolicy::kFifo;
    /// DRR byte quantum added per backlogged destination queue per top-up
    /// round (payload bytes). 0 means one chunk_bytes. Ignored under kFifo.
    uint64_t drr_quantum_bytes = 0;
  };

  using Task = std::function<Status()>;
  /// A handler gets the delivered chunk itself and may keep its payload by
  /// moving it out.
  using ChunkHandler = std::function<Status(Chunk&)>;
  /// Extra key/value pairs exported into a task span's trace args.
  using TraceArgs = std::vector<std::pair<std::string, int64_t>>;

  explicit PipelinedFabric(const Params& params);

  uint32_t num_nodes() const { return params_.num_nodes; }
  const Params& params() const { return params_; }

  /// Registers the handler that runs (as a CPU task at chunk.dst, under
  /// stage `stage`) for every arriving chunk of `type`. One handler per
  /// type; register before Run().
  void OnChunk(MessageType type, const char* stage, ChunkHandler handler);

  /// Schedules `fn` on `node`'s serial CPU under stage `stage`. Callable
  /// during setup (released at time zero) or from inside a running task
  /// (released when the posting task finishes). `label` names the task's
  /// trace span; `trace_args` are exported with it.
  void Post(uint32_t node, const char* stage, std::string label, Task fn,
            TraceArgs trace_args = {});

  /// Queues one chunk from inside a running task at `src`. The chunk
  /// leaves the node when the task finishes; transfer start additionally
  /// waits for link credit and for both NICs. Sends on one (src, dst) link
  /// arrive, and their handlers run, in send order whatever their types.
  void SendChunk(uint32_t src, uint32_t dst, MessageType type,
                 ByteBuffer data, bool eos, uint64_t watermark = 0);

  /// Charges modeled CPU work (bytes touched) to the currently running
  /// task. The task's duration is total_charged / cpu_bandwidth.
  void ChargeCpuBytes(uint64_t bytes);

  /// Drains the event loop. Returns the first task error, or DataLoss when
  /// a link exhausted its retry budget (see failure()). A crashed node
  /// does not fail Run() by itself — its streams simply never terminate,
  /// which the driver detects as missing EOS.
  Status Run();

  /// Modeled end-to-end seconds: the time the last event completed.
  double makespan_seconds() const { return makespan_seconds_; }

  const TrafficMatrix& traffic() const { return traffic_; }
  /// Moves the ledgers out (the run's epilogue); traffic() is empty after.
  TrafficMatrix TakeTraffic() { return std::move(traffic_); }
  ReliabilityStats reliability() const { return reliability_; }
  const FailureReport& failure() const { return failure_; }
  bool node_dead(uint32_t node) const { return dead_[node]; }
  /// Times a chunk found its link without credit and had to queue.
  uint64_t credit_stall_events() const { return credit_stall_events_; }

  /// One StepRecord per stage (stages in first-use order), complete once
  /// Run() returns: wall_seconds is the busiest node's modeled CPU seconds
  /// in the stage, the byte and fault fields count the transmissions of
  /// chunks sent by the stage's tasks (retries included), and net_seconds
  /// prices the stage's busiest NIC's first transmissions. Stages
  /// overlap, so these steps do not add up to the makespan; their
  /// BarrierSeconds is what the same work would cost if every stage were
  /// separated by global barriers.
  const std::vector<StepRecord>& steps() const { return steps_; }

  /// Pre-registers a stage so steps() lists it in declaration order
  /// even when its first task only runs mid-simulation.
  void DeclareStage(const char* stage) { StageIndex(stage); }

  /// Passive per-task timing record (always recorded; obs/blame.h walks
  /// these backward to attribute the makespan). Times are modeled seconds;
  /// -1 marks "never happened" (a task posted to a crashed node is created
  /// but never released, so it never gets start/finish times).
  struct TaskTiming {
    uint32_t node = 0;
    uint32_t stage = 0;
    double ready = -1;   ///< Entered the node's runnable queue.
    double start = -1;   ///< Began executing on the serial CPU.
    double finish = -1;  ///< Left the CPU; [ready, start) is cpu-queue wait.
    /// Release cause: the task whose finish posted this one, or the chunk
    /// whose arrival spawned this handler. Both -1 for setup posts, which
    /// are released at time zero (a straggler's late CPU shows up as
    /// cpu-queue wait on its first task).
    int64_t parent_task = -1;
    int64_t parent_chunk = -1;
  };

  /// Passive per-chunk timing record: exclusive, non-overlapping boundaries
  /// of the chunk's life between its sender's finish and its arrival.
  ///   [admit, head)              behind earlier chunks waiting for the
  ///                              link's credit (head-of-line)
  ///   [head, grant)              first to wait, credit window exhausted
  ///   [grant, egress_clear)      waiting for the source egress NIC
  ///   [egress_clear, wire_start) waiting for the destination ingress NIC
  ///   [wire_start, arrival)      on the wire (fault retries included)
  /// Local (src == dst) chunks arrive at admit and skip every wire segment.
  /// Under kDrr the NIC wait [grant, wire_start) is instead described
  /// piecewise by `egress_marks` (see below); egress_clear == wire_start.
  struct ChunkTiming {
    uint32_t src = 0;
    uint32_t dst = 0;
    uint32_t stage = 0;  ///< Sending task's stage.
    MessageType type = MessageType::kTrackR;
    uint64_t bytes = 0;  ///< Payload size at send time.
    double admit = -1;         ///< Sender task finished; chunk hit the link.
    double head = -1;          ///< First of the link's chunks to wait.
    double grant = -1;         ///< Credit granted; eligible for the NICs.
    double egress_clear = -1;  ///< Source egress NIC free.
    double wire_start = -1;    ///< Destination ingress NIC also free.
    double arrival = -1;       ///< Delivered (handler release time).
    int64_t sender_task = -1;  ///< Task whose finish admitted the chunk.
    bool local = false;
    bool delivered = false;
    /// The egress wait [grant, egress_clear) was spent behind a transfer to
    /// a *different* destination: head-of-line blocking at the egress NIC.
    /// (kFifo only; kDrr classifies the wait through `egress_marks`.)
    bool egress_hol = false;
    bool stalled = false;  ///< Waited for the link's credit.

    /// What a chunk parked in a per-destination egress queue is waiting on.
    enum class EgressWait : uint8_t {
      kQueue = 0,  ///< Behind same-destination chunks / transfer.
      kDeficit,    ///< Quantum cursor: the destination's deficit too small.
      kHol,        ///< NIC busy with a different destination's transfer.
      kIngress,    ///< NIC assignable but the destination ingress is busy.
    };
    /// kDrr only: piecewise classification of [grant, wire_start). A
    /// (time, state) mark is appended at every scheduler decision that
    /// changed this chunk's blocking cause; marks are strictly increasing
    /// in time, the first mark sits exactly at `grant`, and each mark's
    /// state holds until the next mark (the last until wire_start) — so
    /// the segments telescope for blame. Empty under kFifo.
    std::vector<std::pair<double, EgressWait>> egress_marks;
  };

  const std::vector<TaskTiming>& task_timings() const { return task_timing_; }
  const std::vector<ChunkTiming>& chunk_timings() const {
    return chunk_timing_;
  }
  const std::string& stage_name(uint32_t stage) const {
    return stages_[stage].phase();
  }
  const std::string& task_label(uint64_t task) const {
    return *tasks_[task].label;
  }

 private:
  struct TaskRecord {
    uint32_t node = 0;
    uint32_t stage = 0;
    const std::string* label = nullptr;  ///< Interned in labels_.
    /// A plain task's body; a handler task runs its chunk's handler.
    Task fn;
    TraceArgs trace_args;  ///< Kept only while tracing.
    /// Index of the chunk this (handler) task consumes, -1 for plain tasks.
    /// When the handler completes, unless its chunk is a local copy, the
    /// chunk's link credit returns (granting the chunks waiting for it).
    int64_t handler_chunk = -1;
  };

  struct Event {
    double time = 0;
    uint64_t seq = 0;
    enum Kind {
      kTaskReady,
      kTaskFinish,
      kChunkArrive,
      /// kDrr only: a transfer released its NIC pair; rerun the source's
      /// egress scheduler and wake senders queued toward the freed ingress.
      kTransferDone,
    } kind = kTaskReady;
    /// kTaskReady payload (index into tasks_), kChunkArrive/kTransferDone
    /// payload (index into chunks_), kTaskFinish target node.
    uint64_t payload = 0;
    uint32_t node = 0;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// One directed link. `chunks[head..]` are its chunks that have not yet
  /// gone on the wire, in send order: the first `granted` hold credit and
  /// wait for the egress NIC (kDrr only; kFifo transmits on grant), the rest
  /// wait for credit. A vector and an offset, so an idle link allocates
  /// nothing.
  struct Link {
    uint64_t credit = 0;
    uint64_t deficit = 0;  ///< kDrr eligibility (payload bytes).
    /// Payload bytes waiting for credit and for the NIC (traced as the
    /// flow.queued.d and egress.queued.d counter tracks).
    uint64_t queued_bytes = 0;
    uint64_t granted_bytes = 0;
    std::vector<uint64_t> chunks;
    uint32_t head = 0;
    uint32_t granted = 0;

    /// Whether some chunk waits for credit, and the first that does.
    bool waiting() const { return chunks.size() > head + granted; }
    uint64_t first_waiting() const { return chunks[head + granted]; }
    /// Drops the front chunk, compacting once the dropped prefix is half
    /// the vector.
    void PopFront();
  };

  uint32_t StageIndex(const char* stage);
  void PushEvent(double time, Event::Kind kind, uint64_t payload,
                 uint32_t node);
  /// Starts the next runnable task on `node` if its CPU is idle.
  void TryStartTask(uint32_t node, double now);
  /// Applies a finished task's effects: releases its posts and sends and
  /// returns its chunk's credit.
  void FinishTask(uint32_t node, double now);
  /// Ledger effects of a credit grant: the first transmission into the
  /// stage's accumulator, timing.grant, the credit-stall histogram. Shared by
  /// both egress policies so the byte ledgers are identical by construction.
  void AccountGrant(uint64_t chunk_index, double ready);
  /// kFifo: eagerly reserves the NIC pair in grant order and transmits.
  void LaunchChunk(uint64_t chunk_index, double ready);
  /// kDrr: counts the link's next chunk as granted, so it waits in the
  /// link's egress queue, and gives the scheduler a chance to assign the NIC.
  void EnqueueEgress(uint64_t chunk_index, double now);
  /// kDrr: while the egress NIC is free, picks the next chunk by deficit
  /// round-robin (top-up rounds in destination order, oldest-grant-first
  /// among eligible queue fronts, ingress-busy destinations skipped) and
  /// transmits it. Refreshes the waiting fronts' blame marks on exit.
  void RunEgressScheduler(uint32_t node, double now);
  /// The wait of a queue front toward `dst` while `node`'s NIC is busy.
  ChunkTiming::EgressWait BusyNicWait(uint32_t node, uint32_t dst) const;
  /// Appends (or same-timestamp-overwrites) a wait-state mark.
  void MarkEgressWait(uint64_t chunk_index, double now,
                      ChunkTiming::EgressWait state);
  /// Re-derives every queue front's wait state after a scheduler pass.
  /// `after_pick` distinguishes "lost the pick to the quantum cursor"
  /// (drr_wait) from plain NIC occupancy.
  void RefreshFrontMarks(uint32_t node, double now, bool after_pick);
  /// Puts a chunk on the wire at `wire_start`: models faults, occupies the
  /// NIC pair, schedules the arrival (and, under kDrr, the NIC release).
  void StartTransfer(uint64_t chunk_index, double wire_start);
  uint64_t DrrQuantumBytes() const;
  /// Grants credit and hands the chunk to the egress policy, or queues it
  /// on its link to wait for credit.
  void AdmitChunk(uint64_t chunk_index, double ready);
  Link& LinkOf(uint32_t src, uint32_t dst) {
    return links_[static_cast<size_t>(src) * params_.num_nodes + dst];
  }
  uint64_t LinkWindowBytes() const;
  /// The credit a network chunk holds from grant until its handler ends.
  uint64_t CreditNeed(const ChunkTiming& timing) const;
  /// Hands `bytes` of credit back to the src->dst link and grants its
  /// waiting chunks in order as far as the restored window allows.
  void ReturnCredit(uint32_t src, uint32_t dst, uint64_t bytes, double now);
  /// Emits a 'C' counter sample stamped with modeled (not wall) time.
  void RecordModeledCounter(std::string name, uint32_t node, double now,
                            int64_t value);
  /// Emits the src->dst link's counter `prefix`<dst> on src's track
  /// (flow.credit.d, flow.queued.d, egress.queued.d, drr.deficit.d),
  /// saturating `value` at the int64 maximum.
  void RecordLinkCounter(const char* prefix, uint32_t src, uint32_t dst,
                         double now, uint64_t value);
  bool fault_active() const {
    return params_.fault_policy != nullptr && params_.fault_policy->active();
  }

  Params params_;
  TrafficMatrix traffic_;
  ReliabilityStats reliability_;
  /// Every transmission, CPU charge and fault lands in its stage's
  /// accumulator (and through it in the run ledgers).
  std::vector<StepAccumulator> stages_;  ///< Indexed by stage.
  std::vector<StepRecord> steps_;        ///< stages_, closed by Run().

  /// Returns the one stored copy of `label`, whose address is stable.
  const std::string* InternLabel(std::string label);

  struct Handler {
    uint32_t stage = 0;
    const std::string* label = nullptr;  ///< "<stage>.<message type>".
    ChunkHandler fn;
  };
  std::array<std::optional<Handler>, kNumMessageTypes> handlers_;
  /// Every task label, stored once: chunk handler tasks, the bulk of all
  /// tasks, share their type's label instead of building one each.
  std::set<std::string> labels_;

  // Event loop state.
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  uint64_t next_event_seq_ = 0;
  std::vector<TaskRecord> tasks_;
  std::vector<Chunk> chunks_;
  std::vector<std::deque<uint64_t>> runnable_;  ///< Task indices per node.
  std::vector<double> cpu_free_;
  std::vector<double> egress_free_;
  std::vector<double> ingress_free_;
  /// Destination of the transfer currently (or last) holding each node's
  /// egress NIC — classifies a later chunk's egress wait as head-of-line
  /// (different destination) vs same-destination queueing.
  std::vector<uint32_t> egress_occupant_dst_;
  std::vector<Link> links_;  ///< [src * n + dst].
  /// kDrr: the node's last scheduler pass ended with its NIC busy and
  /// nothing picked. Until the NIC frees or a pass picks, every queue
  /// front's wait depends only on the NIC's occupant, so a wake changes
  /// nothing.
  std::vector<bool> egress_settled_;
  std::vector<bool> dead_;
  std::vector<TaskTiming> task_timing_;    ///< Aligned with tasks_.
  std::vector<ChunkTiming> chunk_timing_;  ///< Aligned with chunks_.
  std::vector<uint64_t> nic_out_bytes_;    ///< Cumulative wire bytes, per node.
  std::vector<uint64_t> nic_in_bytes_;

  // Credit-stall metrics (MetricsRegistry-owned; cached at construction).
  Histogram* stall_hist_ = nullptr;
  Counter* stall_hol_total_ = nullptr;
  Counter* stall_exhausted_total_ = nullptr;

  // The currently executing task (set while its fn runs).
  bool in_task_ = false;
  uint32_t running_node_ = 0;
  uint64_t running_task_ = 0;
  uint64_t running_charged_bytes_ = 0;
  /// Each node's task on the CPU, if any, and the effects it buffers: its
  /// posts (task indices) and sends (chunk indices) are released at its
  /// finish time.
  struct InFlight {
    uint64_t task = 0;
    std::vector<uint64_t> posts;
    std::vector<uint64_t> sends;
  };
  std::vector<std::optional<InFlight>> in_flight_;

  bool ran_ = false;
  double makespan_seconds_ = 0;
  Status first_error_;
  FailureReport failure_;
  uint64_t credit_stall_events_ = 0;

  std::optional<Rng> fault_rng_;
};

}  // namespace tj

#endif  // TJ_NET_PIPELINED_FABRIC_H_
