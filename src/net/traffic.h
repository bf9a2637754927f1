// Network traffic accounting.
//
// A TrafficMatrix records bytes per (source, destination, message type).
// Types aggregate into the figures' four stacked classes via ClassOf().
// Local copies (src == dst) are tracked separately and never count as
// network traffic — the paper's cost analysis treats in-place transfers as
// free, and its step tables report them as separate "local copy" rows.
//
// A StepRecord holds one phase's deltas of those ledgers. Both fabrics
// append one per phase (barrier fabric) or stage (pipelined fabric), and
// they are the only per-phase record: profiles, phase-time lists and the
// barrier-equivalent time are all read off them.
#ifndef TJ_NET_TRAFFIC_H_
#define TJ_NET_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"

namespace tj {

constexpr int kNumMessageTypes = 16;

class TrafficMatrix {
 public:
  explicit TrafficMatrix(uint32_t num_nodes = 0) { Reset(num_nodes); }

  void Reset(uint32_t num_nodes);

  uint32_t num_nodes() const { return num_nodes_; }

  /// Records `bytes` of type `type` from src to dst (first transmission;
  /// the "goodput" side of the ledger).
  void Add(uint32_t src, uint32_t dst, MessageType type, uint64_t bytes);

  /// Records `bytes` of fault-recovery overhead from src to dst:
  /// retransmitted frames, injected duplicate copies, and ack/nack control
  /// messages. Kept in a separate matrix so benchmarks can report goodput
  /// (Add) vs. total wire traffic (Add + AddRetransmit).
  void AddRetransmit(uint32_t src, uint32_t dst, MessageType type,
                     uint64_t bytes);

  /// Bytes that crossed the network (src != dst) for one message type.
  uint64_t NetworkBytes(MessageType type) const;
  /// Bytes that crossed the network for one figure class.
  uint64_t NetworkBytes(TrafficClass cls) const;
  /// Bytes that crossed the network, all types.
  uint64_t TotalNetworkBytes() const;

  /// Locally-copied (src == dst) bytes.
  uint64_t LocalBytes(MessageType type) const;
  uint64_t LocalBytes(TrafficClass cls) const;
  uint64_t TotalLocalBytes() const;

  /// Network bytes leaving / entering one node.
  uint64_t EgressBytes(uint32_t node) const;
  uint64_t IngressBytes(uint32_t node) const;

  /// Bytes on one directed link.
  uint64_t LinkBytes(uint32_t src, uint32_t dst) const;
  /// max over nodes of max(ingress, egress): the NIC bottleneck.
  uint64_t MaxNodeBytes() const;

  /// Fault-recovery overhead bytes that crossed the network.
  uint64_t RetransmitBytes(MessageType type) const;
  uint64_t RetransmitBytes(TrafficClass cls) const;
  uint64_t TotalRetransmitBytes() const;

  /// Bytes failed attempts burned before recovery succeeded (network,
  /// src != dst). Exactly zero on any run that never failed a phase.
  uint64_t RecoveryBytes(MessageType type) const;
  uint64_t RecoveryBytes(TrafficClass cls) const;
  uint64_t TotalRecoveryBytes() const;

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
  bool operator==(const TrafficMatrix& other) const {
    return num_nodes_ == other.num_nodes_ && cells_ == other.cells_ &&
           retrans_cells_ == other.retrans_cells_ &&
           recovery_cells_ == other.recovery_cells_;
  }

  /// Multi-line human-readable per-class summary.
  std::string Report() const;

 private:
  uint64_t& Cell(uint32_t src, uint32_t dst, int type) {
    return cells_[(static_cast<uint64_t>(src) * num_nodes_ + dst) *
                      kNumMessageTypes +
                  type];
  }
  uint64_t Cell(uint32_t src, uint32_t dst, int type) const {
    return cells_[(static_cast<uint64_t>(src) * num_nodes_ + dst) *
                      kNumMessageTypes +
                  type];
  }

  uint64_t& RetransCell(uint32_t src, uint32_t dst, int type) {
    return retrans_cells_[(static_cast<uint64_t>(src) * num_nodes_ + dst) *
                              kNumMessageTypes +
                          type];
  }
  uint64_t RetransCell(uint32_t src, uint32_t dst, int type) const {
    return retrans_cells_[(static_cast<uint64_t>(src) * num_nodes_ + dst) *
                              kNumMessageTypes +
                          type];
  }

  uint64_t& RecoveryCell(uint32_t src, uint32_t dst, int type) {
    return recovery_cells_[(static_cast<uint64_t>(src) * num_nodes_ + dst) *
                               kNumMessageTypes +
                           type];
  }
  uint64_t RecoveryCell(uint32_t src, uint32_t dst, int type) const {
    return recovery_cells_[(static_cast<uint64_t>(src) * num_nodes_ + dst) *
                               kNumMessageTypes +
                           type];
  }

  uint32_t num_nodes_ = 0;
  std::vector<uint64_t> cells_;
  std::vector<uint64_t> retrans_cells_;
  std::vector<uint64_t> recovery_cells_;
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
