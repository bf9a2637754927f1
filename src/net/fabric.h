// Synchronous simulated cluster fabric.
//
// N logical nodes exchange messages in phases separated by barriers —
// exactly the de-pipelined execution the paper's implementation section
// uses ("we separate CPU and network utilization by de-pipelining all
// operations"). Within a phase every node runs its local work and calls
// Send(); deliveries become visible to receivers only after the barrier,
// in deterministic (source-ordered) order.
//
// Phases run nodes sequentially by default, or concurrently on a
// ThreadPool (SetThreadPool) — the paper allows "multiple threads per
// process ... since all local operations combine tuples with the same join
// key only". Message delivery order and traffic accounting are identical
// in both modes: each node owns its send queue (and, in fault mode, its
// log of sent frames), and only the single-threaded barrier writes the
// ledgers.
//
// All traffic is accounted in a TrafficMatrix; src == dst sends are local
// copies (no network bytes). Right after the phase's node work, before any
// failure check, the barrier accounts every queued message or logged frame
// through one StepAccumulator, into the run's ledgers and the phase's
// StepRecord together.
//
// Fault-tolerant mode (SetFaultPolicy with an active policy): every payload
// is framed (net/message.h) with a sequence number and CRC32C, pushed
// through a seeded FaultInjector, and the barrier runs a bounded
// nack/retransmit protocol per directed link. Frames that stay missing or
// corrupt after the retry budget make RunPhaseReliable return
// Status::DataLoss naming the phase and link — callers fail the query
// rather than compute on partial data. With an inactive (all-zero) policy
// the fabric keeps the pristine unframed path: results, delivery order and
// the TrafficMatrix are byte-identical to a fabric with no policy at all.
//
// Inbox semantics: messages delivered at a barrier stay in the receiver's
// inbox until taken — they survive later barriers, and typed TakeInbox
// calls leave messages of other types in place (in delivery order) for
// later takes in the same or a later phase. Algorithms rely on this
// (e.g. hash join sends R and S in consecutive phases and consumes both
// two barriers later), so the fabric never drops undelivered inbox
// messages.
#ifndef TJ_NET_FABRIC_H_
#define TJ_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "net/failure.h"
#include "net/fault_injector.h"
#include "net/message.h"
#include "net/traffic.h"

namespace tj {

class Histogram;

class Fabric {
 public:
  explicit Fabric(uint32_t num_nodes);

  uint32_t num_nodes() const { return num_nodes_; }

  /// Runs subsequent phases' per-node work on `pool` (not owned; pass
  /// nullptr to return to sequential execution). Results are identical
  /// either way.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  /// Installs a fault policy executed by a deterministic injector seeded
  /// with `seed`. A delivery-inert policy (active() == false) leaves the
  /// fabric on the pristine unframed path — a pure straggler only stretches
  /// modeled phase time there, so traffic stays byte-identical to a fabric
  /// with no policy at all. Call before the first phase.
  void SetFaultPolicy(const FaultPolicy& policy, uint64_t seed);

  /// Modeled per-phase deadline: a phase whose modeled straggler slowdown
  /// alone exceeds `seconds` fails with DeadlineExceeded and the straggler
  /// is promoted to suspected-dead in the failure report. Deterministic by
  /// construction — only modeled time counts, never measured wall time.
  /// Zero (the default) disables the deadline.
  void SetPhaseDeadline(double seconds) { phase_deadline_seconds_ = seconds; }

  /// Structured diagnostics sink, filled on every RunPhaseReliable error
  /// path with the failure report plus the partial run's traffic and phase
  /// times. Not owned; pass nullptr to detach. Survives across phases.
  void SetDiagnosticsSink(RunDiagnostics* sink) { diag_sink_ = sink; }

  /// The structured report of the most recent phase failure (empty while
  /// every phase has succeeded).
  const FailureReport& failure() const { return failure_; }

  /// Queues a message for delivery after the current phase. Callable only
  /// from inside RunPhaseReliable, and only by the node whose id is `src`
  /// (this is what makes concurrent phases race-free).
  void Send(uint32_t src, uint32_t dst, MessageType type, ByteBuffer data);

  /// Runs one named phase: fn(node) for every node, then the barrier:
  /// queued messages move into the receivers' inboxes ordered by source
  /// node, then send order. The phase's wall time is recorded under `name`.
  ///
  /// A non-OK Status from any node's work, a crash-faulted node, or
  /// unrecoverable message loss fails the phase; the error names the phase.
  /// Messages that were delivered reliably before the failure stay queued,
  /// but callers are expected to abandon the fabric on error.
  Status RunPhaseReliable(const std::string& name,
                          const std::function<Status(uint32_t node)>& fn);

  /// Consumes and returns node's inbox (messages delivered at barriers so
  /// far and not yet taken).
  std::vector<Message> TakeInbox(uint32_t node);

  /// Messages of one type only; other messages remain pending — in
  /// delivery order — for later TakeInbox calls (same phase or later).
  std::vector<Message> TakeInbox(uint32_t node, MessageType type);

  const TrafficMatrix& traffic() const { return traffic_; }
  /// Moves the ledgers out (the run's epilogue); traffic() is empty after.
  TrafficMatrix TakeTraffic() { return std::move(traffic_); }

  /// What the injector and the retry protocol did so far. Zero-initialized
  /// in pristine mode.
  ReliabilityStats reliability() const { return reliability_; }

  /// One StepRecord per completed phase, in execution order, accounted at
  /// the barrier: everything the phase put on the wire (net_seconds priced
  /// by the default NetworkTimeModel) plus what the injector and the retry
  /// protocol did during it. Phases are labeled here, at the barrier, so
  /// algorithms never thread profiling state through their per-node work.
  /// Failed phases are not recorded (callers abandon the fabric on error),
  /// though their traffic and faults stay in traffic() and reliability().
  const std::vector<StepRecord>& steps() const { return steps_; }

 private:
  struct Pending {
    uint32_t dst;
    MessageType type;
    ByteBuffer data;
  };
  /// One frame retained by the sender for possible retransmission, with
  /// what the injector did to its first transmission.
  struct SentFrame {
    uint32_t dst;
    MessageType type;
    uint32_t seq;
    ByteBuffer frame;
    uint64_t copies;  ///< Wire copies the injector produced (0 to 2).
    ReliabilityStats outcome;  ///< The injector's faults on it.
  };

  uint32_t& NextSeq(uint32_t src, uint32_t dst) {
    return next_seq_[static_cast<uint64_t>(src) * num_nodes_ + dst];
  }

  /// Accounts this phase's queued payloads (pristine) or logged frames
  /// (fault mode) into the run ledgers and `step`.
  void AccountSends(StepAccumulator* step);

  /// The reliable barrier: reassembles framed messages per link, runs the
  /// nack/retransmit rounds (accounted into `step`), and appends the
  /// recovered messages to the inboxes in (src, seq) order. Pristine-path
  /// barrier when no injector.
  Status DeliverBarrier(const std::string& name, StepAccumulator* step);

  /// Funnels every phase-failure Status through one place: copies the
  /// failure report, traffic and modeled phase seconds — the completed
  /// steps', then the failed phase's `modeled_seconds` — into the
  /// diagnostics sink (if any), then returns `status` unchanged.
  Status Fail(Status status, double modeled_seconds);

  uint32_t num_nodes_;
  ThreadPool* pool_ = nullptr;
  /// Payload-size distribution instrument, resolved once at construction.
  /// Registry instruments live for the process, so the pointer stays valid
  /// for any normally-scoped fabric (tests that ResetForTest() construct
  /// their fabrics afterwards).
  Histogram* msg_bytes_hist_ = nullptr;
  TrafficMatrix traffic_;
  ReliabilityStats reliability_;
  /// Per-source send queues: node i only ever appends to queued_[i], so
  /// concurrent phase execution needs no locking, and merging in source
  /// order keeps delivery deterministic. In fault mode these hold wire
  /// frames (post-injector); otherwise raw payloads.
  std::vector<std::vector<Pending>> queued_;
  std::vector<std::vector<Message>> inboxes_;
  bool in_phase_ = false;
  std::vector<StepRecord> steps_;
  /// Each completed step's modeled seconds: its network seconds plus the
  /// modeled straggler slowdown, if any. Measured wall time never enters.
  std::vector<std::pair<std::string, double>> modeled_seconds_;

  // Fault-tolerant mode state. The policy is retained even when it is
  // delivery-inert (pure straggler): the slowdown is modeled on the
  // pristine path, where no injector exists.
  bool has_policy_ = false;
  FaultPolicy policy_;
  double phase_deadline_seconds_ = 0;
  RunDiagnostics* diag_sink_ = nullptr;
  FailureReport failure_;
  std::optional<FaultInjector> injector_;
  std::vector<std::vector<SentFrame>> sent_log_;  ///< Per src, per phase.
  std::vector<uint32_t> next_seq_;                ///< Per link, whole run.
  uint64_t phase_index_ = 0;
};

}  // namespace tj

#endif  // TJ_NET_FABRIC_H_
