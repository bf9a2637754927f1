// Network traffic accounting.
//
// A TrafficMatrix records bytes per (source, destination, message type) in
// three ledgers: first transmissions, fault-recovery overhead and the
// traffic of failed attempts. Types aggregate into the figures' four
// stacked classes via ClassOf(). Local copies (src == dst) are tracked
// separately and never count as network traffic — the paper's cost
// analysis treats in-place transfers as free, and its step tables report
// them as separate "local copy" rows.
//
// A StepRecord holds one phase's share of those ledgers. Both fabrics
// account every transmission through a StepAccumulator, into the run's
// matrix and the open step in one call. The records are the only per-phase
// record: profiles, phase-time lists and the barrier-equivalent time are
// all read off them.
#ifndef TJ_NET_TRAFFIC_H_
#define TJ_NET_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"

namespace tj {

struct NetworkTimeModel;
struct ReliabilityStats;

constexpr int kNumMessageTypes = 16;

class TrafficMatrix {
 public:
  explicit TrafficMatrix(uint32_t num_nodes = 0)
      : num_nodes_(num_nodes), cells_(LedgerCells(), 0) {}

  uint32_t num_nodes() const { return num_nodes_; }

  /// Records `bytes` of type `type` from src to dst (first transmission;
  /// the "goodput" side of the ledger).
  void Add(uint32_t src, uint32_t dst, MessageType type, uint64_t bytes) {
    Cell(kGoodput, static_cast<int>(type), src, dst) += bytes;
  }

  /// Records `bytes` of fault-recovery overhead from src to dst:
  /// retransmitted frames, injected duplicate copies, and ack/nack control
  /// messages. Kept in a separate ledger so benchmarks can report goodput
  /// (Add) vs. total wire traffic (Add + AddRetransmit).
  void AddRetransmit(uint32_t src, uint32_t dst, MessageType type,
                     uint64_t bytes) {
    Cell(kRetransmit, static_cast<int>(type), src, dst) += bytes;
  }

  /// Bytes that crossed the network (src != dst) for one message type.
  uint64_t NetworkBytes(MessageType type) const {
    return Sum(kGoodput, false, TypesOf(type));
  }
  /// Bytes that crossed the network for one figure class.
  uint64_t NetworkBytes(TrafficClass cls) const {
    return Sum(kGoodput, false, TypesOf(cls));
  }
  /// Bytes that crossed the network, all types.
  uint64_t TotalNetworkBytes() const { return Sum(kGoodput, false, kAllTypes); }

  /// Locally-copied (src == dst) bytes.
  uint64_t LocalBytes(MessageType type) const {
    return Sum(kGoodput, true, TypesOf(type));
  }
  uint64_t TotalLocalBytes() const { return Sum(kGoodput, true, kAllTypes); }

  /// Network bytes leaving / entering one node.
  uint64_t EgressBytes(uint32_t node) const;
  uint64_t IngressBytes(uint32_t node) const;

  /// Bytes on one directed link.
  uint64_t LinkBytes(uint32_t src, uint32_t dst) const;
  /// max over nodes of max(ingress, egress): the NIC bottleneck.
  uint64_t MaxNodeBytes() const;

  /// Fault-recovery overhead bytes that crossed the network.
  uint64_t RetransmitBytes(MessageType type) const {
    return Sum(kRetransmit, false, TypesOf(type));
  }
  uint64_t TotalRetransmitBytes() const {
    return Sum(kRetransmit, false, kAllTypes);
  }

  /// Bytes failed attempts burned before recovery succeeded (network,
  /// src != dst). Exactly zero on any run that never failed a phase.
  uint64_t TotalRecoveryBytes() const {
    return Sum(kRecovery, false, kAllTypes);
  }

  /// Accumulates another matrix (same node count).
  void Merge(const TrafficMatrix& other);

  /// Folds a *failed* attempt's wire traffic (goodput + retransmits +
  /// recovery) into this matrix's recovery ledger. `node_map[i]` gives the
  /// id in this matrix of `other`'s node i (other may have run degraded on
  /// fewer nodes); every entry must be < num_nodes().
  void AccumulateRecovery(const TrafficMatrix& other,
                          const std::vector<uint32_t>& node_map);

  /// Returns this matrix re-indexed onto `num_nodes` nodes: every ledger
  /// cell (src, dst, type) moves to (node_map[src], node_map[dst], type),
  /// additively. Used to express a degraded (N-1 node) run's traffic in the
  /// original cluster's node ids.
  TrafficMatrix MappedTo(uint32_t num_nodes,
                         const std::vector<uint32_t>& node_map) const;

  /// Exact equality of every (src, dst, type) cell across all three
  /// ledgers (first-send, retransmit, recovery). Used by the
  /// fault-equivalence tests.
  bool operator==(const TrafficMatrix& other) const;

  /// Multi-line human-readable per-class summary.
  std::string Report() const;

 private:
  enum Ledger { kGoodput = 0, kRetransmit, kRecovery, kNumLedgers };
  static constexpr uint32_t kAllTypes = (1u << kNumMessageTypes) - 1;
  /// Type masks for Sum: one message type's bit, or a class's types.
  static uint32_t TypesOf(MessageType t) { return 1u << static_cast<int>(t); }
  static uint32_t TypesOf(TrafficClass cls);

  /// Cells per ledger: one per (message type, source, destination).
  uint64_t LedgerCells() const {
    return static_cast<uint64_t>(kNumMessageTypes) * num_nodes_ * num_nodes_;
  }
  /// The one cell layout: ledger-major, then message type, then the
  /// (src, dst) link, so each type's N x N cells are contiguous and a query
  /// reads only the types it asks for.
  uint64_t Index(int ledger, int type, uint32_t src, uint32_t dst) const {
    return (static_cast<uint64_t>(ledger) * kNumMessageTypes + type) *
               num_nodes_ * num_nodes_ +
           static_cast<uint64_t>(src) * num_nodes_ + dst;
  }
  /// The goodput ledger always exists; later ledgers are allocated on
  /// their first write, so cells_ ends after the last ledger ever written
  /// and an unallocated ledger reads as zero. Pristine runs never pay for
  /// the fault ledgers.
  bool HasLedger(int ledger) const {
    return cells_.size() > ledger * LedgerCells();
  }
  /// A cell to write (both nodes checked), allocating its ledger on first
  /// use.
  uint64_t& Cell(int ledger, int type, uint32_t src, uint32_t dst);
  /// Calls fn(ledger, type, src, dst, bytes) for every nonzero cell.
  template <typename Fn>
  void ForEachCell(Fn&& fn) const;

  /// Sums one ledger over its network (src != dst) or local (src == dst)
  /// cells whose message type's bit is set in `types`, reading each cell
  /// at most once.
  uint64_t Sum(Ledger ledger, bool local, uint32_t types) const;

  uint32_t num_nodes_ = 0;
  std::vector<uint64_t> cells_;
};

/// One de-pipelined join step: what one phase cost on the CPU side, what it
/// put on the (simulated) wire, and what the fault protocol did to recover.
struct StepRecord {
  std::string phase;

  /// CPU seconds of the phase. Barrier fabric: measured wall seconds, all
  /// nodes, barrier to barrier (the de-pipelined step time of Tables 3/4).
  /// Pipelined fabric: the busiest node's modeled CPU seconds in the stage.
  double wall_seconds = 0;
  /// Modeled transfer seconds for this step: the phase's busiest NIC
  /// through the fabric's network bandwidth.
  double net_seconds = 0;

  /// First-transmission network bytes (src != dst) this phase.
  uint64_t goodput_bytes = 0;
  /// Local (src == dst) copy bytes this phase.
  uint64_t local_bytes = 0;
  /// Fault-recovery overhead this phase: retransmitted frames, injected
  /// duplicate copies and ack/nack control messages.
  uint64_t retransmit_bytes = 0;
  /// The phase's NIC bottleneck: max over nodes of max(ingress, egress)
  /// goodput during this phase.
  uint64_t max_node_bytes = 0;

  /// Recovery-protocol work during this phase's barrier.
  uint64_t retransmitted_frames = 0;
  uint64_t nack_messages = 0;
  /// Injected faults observed during this phase.
  uint64_t frames_dropped = 0;
  uint64_t frames_corrupted = 0;
  uint64_t frames_duplicated = 0;

  /// Per-message-type splits of the three byte ledgers above.
  std::array<uint64_t, kNumMessageTypes> network_bytes_by_type{};
  std::array<uint64_t, kNumMessageTypes> local_bytes_by_type{};
  std::array<uint64_t, kNumMessageTypes> retransmit_bytes_by_type{};

  uint64_t NetworkBytes(MessageType type) const {
    return network_bytes_by_type[static_cast<int>(type)];
  }
  uint64_t LocalBytes(MessageType type) const {
    return local_bytes_by_type[static_cast<int>(type)];
  }
  uint64_t RetransmitBytes(MessageType type) const {
    return retransmit_bytes_by_type[static_cast<int>(type)];
  }
};

/// The open step of a run: the StepRecord being filled plus the step's own
/// per-node goodput ingress/egress and modeled CPU seconds. Each call
/// writes the run's ledger (TrafficMatrix or ReliabilityStats) and this
/// step together; Close() reads only the step's own counters, so a step
/// costs O(transmissions + nodes).
class StepAccumulator {
 public:
  StepAccumulator(std::string phase, uint32_t num_nodes);

  const std::string& phase() const { return record_.phase; }

  /// A first transmission: goodput when src != dst, a local copy otherwise.
  void Add(TrafficMatrix* run, uint32_t src, uint32_t dst, MessageType type,
           uint64_t bytes);
  /// Fault-recovery overhead on the network (src != dst).
  void AddRetransmit(TrafficMatrix* run, uint32_t src, uint32_t dst,
                     MessageType type, uint64_t bytes);

  /// What the wire and the retry protocol did to this step's
  /// transmissions. Reorders have no step field (they perturb an inbox, not
  /// a transmission) and reach the run's counters only.
  void AddReliability(ReliabilityStats* run, const ReliabilityStats& wire);

  /// Modeled CPU seconds one node spent in this step.
  void AddCpuSeconds(uint32_t node, double seconds) {
    node_cpu_[node] += seconds;
  }

  /// The finished record: max_node_bytes is the busiest node's goodput
  /// ingress or egress in this step, priced by `model` into net_seconds;
  /// wall_seconds is the busiest node's CPU seconds (zero when none were
  /// added — the barrier fabric measures its own).
  StepRecord Close(const NetworkTimeModel& model) const;

 private:
  StepRecord record_;
  std::vector<uint64_t> node_in_;
  std::vector<uint64_t> node_out_;
  std::vector<double> node_cpu_;
};

/// The (phase, wall_seconds) projection of `steps`, in step order.
std::vector<std::pair<std::string, double>> PhaseSeconds(
    const std::vector<StepRecord>& steps);

/// Barrier-equivalent seconds: what the steps cost run back to back, each
/// one's CPU work then its transfers — the sum over steps of
/// wall_seconds + net_seconds, in step order. A pipelined run's makespan is
/// gated against this.
double BarrierSeconds(const std::vector<StepRecord>& steps);

/// Pretty-prints a byte count as "12.34 GiB" / "56.7 MiB" / "890 B".
std::string FormatBytes(uint64_t bytes);

}  // namespace tj

#endif  // TJ_NET_TRAFFIC_H_
