#include "net/traffic.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "net/fault_injector.h"
#include "net/time_model.h"

namespace tj {

uint32_t TrafficMatrix::TypesOf(TrafficClass cls) {
  uint32_t types = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    if (ClassOf(static_cast<MessageType>(t)) == cls) types |= 1u << t;
  }
  return types;
}

uint64_t& TrafficMatrix::Cell(int ledger, int type, uint32_t src,
                              uint32_t dst) {
  TJ_CHECK_LT(src, num_nodes_);
  TJ_CHECK_LT(dst, num_nodes_);
  if (!HasLedger(ledger)) cells_.resize((ledger + 1) * LedgerCells(), 0);
  return cells_[Index(ledger, type, src, dst)];
}

uint64_t TrafficMatrix::Sum(Ledger ledger, bool local, uint32_t types) const {
  if (!HasLedger(ledger)) return 0;
  const uint64_t links = static_cast<uint64_t>(num_nodes_) * num_nodes_;
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    if (!(types >> t & 1)) continue;
    const uint64_t* cells = cells_.data() + Index(ledger, t, 0, 0);
    uint64_t diagonal = 0;
    for (uint64_t i = 0; i < links; i += num_nodes_ + 1) diagonal += cells[i];
    if (local) {
      total += diagonal;
      continue;
    }
    uint64_t all = 0;
    for (uint64_t i = 0; i < links; ++i) all += cells[i];
    total += all - diagonal;
  }
  return total;
}

uint64_t TrafficMatrix::LinkBytes(uint32_t src, uint32_t dst) const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    total += cells_[Index(kGoodput, t, src, dst)];
  }
  return total;
}

uint64_t TrafficMatrix::EgressBytes(uint32_t node) const {
  uint64_t total = 0;
  for (uint32_t d = 0; d < num_nodes_; ++d) {
    if (d != node) total += LinkBytes(node, d);
  }
  return total;
}

uint64_t TrafficMatrix::IngressBytes(uint32_t node) const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_nodes_; ++s) {
    if (s != node) total += LinkBytes(s, node);
  }
  return total;
}

uint64_t TrafficMatrix::MaxNodeBytes() const {
  std::vector<uint64_t> egress(num_nodes_, 0);
  std::vector<uint64_t> ingress(num_nodes_, 0);
  for (int t = 0; t < kNumMessageTypes; ++t) {
    const uint64_t* cells = cells_.data() + Index(kGoodput, t, 0, 0);
    for (uint32_t s = 0; s < num_nodes_; ++s) {
      for (uint32_t d = 0; d < num_nodes_; ++d) {
        if (s == d) continue;
        const uint64_t bytes = cells[static_cast<uint64_t>(s) * num_nodes_ + d];
        egress[s] += bytes;
        ingress[d] += bytes;
      }
    }
  }
  uint64_t best = 0;
  for (uint32_t n = 0; n < num_nodes_; ++n) {
    best = std::max({best, egress[n], ingress[n]});
  }
  return best;
}

bool TrafficMatrix::operator==(const TrafficMatrix& other) const {
  if (num_nodes_ != other.num_nodes_) return false;
  // A ledger one side never allocated equals an all-zero one.
  const std::vector<uint64_t>& shorter =
      cells_.size() <= other.cells_.size() ? cells_ : other.cells_;
  const std::vector<uint64_t>& longer =
      cells_.size() <= other.cells_.size() ? other.cells_ : cells_;
  return std::equal(shorter.begin(), shorter.end(), longer.begin()) &&
         std::all_of(longer.begin() + shorter.size(), longer.end(),
                     [](uint64_t cell) { return cell == 0; });
}

void TrafficMatrix::Merge(const TrafficMatrix& other) {
  TJ_CHECK_EQ(num_nodes_, other.num_nodes_);
  cells_.resize(std::max(cells_.size(), other.cells_.size()), 0);
  for (size_t i = 0; i < other.cells_.size(); ++i) cells_[i] += other.cells_[i];
}

template <typename Fn>
void TrafficMatrix::ForEachCell(Fn&& fn) const {
  const uint64_t links = static_cast<uint64_t>(num_nodes_) * num_nodes_;
  for (uint64_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i] == 0) continue;
    const uint64_t slab = i / links;  // ledger * kNumMessageTypes + type
    const uint64_t link = i % links;
    fn(static_cast<int>(slab / kNumMessageTypes),
       static_cast<int>(slab % kNumMessageTypes),
       static_cast<uint32_t>(link / num_nodes_),
       static_cast<uint32_t>(link % num_nodes_), cells_[i]);
  }
}

void TrafficMatrix::AccumulateRecovery(const TrafficMatrix& other,
                                       const std::vector<uint32_t>& node_map) {
  TJ_CHECK_EQ(node_map.size(), static_cast<size_t>(other.num_nodes_));
  for (uint32_t node : node_map) TJ_CHECK_LT(node, num_nodes_);
  other.ForEachCell([&](int, int type, uint32_t src, uint32_t dst,
                        uint64_t bytes) {
    Cell(kRecovery, type, node_map[src], node_map[dst]) += bytes;
  });
}

TrafficMatrix TrafficMatrix::MappedTo(
    uint32_t num_nodes, const std::vector<uint32_t>& node_map) const {
  TJ_CHECK_EQ(node_map.size(), static_cast<size_t>(num_nodes_));
  for (uint32_t node : node_map) TJ_CHECK_LT(node, num_nodes);
  TrafficMatrix out(num_nodes);
  ForEachCell([&](int ledger, int type, uint32_t src, uint32_t dst,
                  uint64_t bytes) {
    out.Cell(ledger, type, node_map[src], node_map[dst]) += bytes;
  });
  return out;
}

std::string TrafficMatrix::Report() const {
  std::string out;
  for (int c = 0; c < kNumTrafficClasses; ++c) {
    auto cls = static_cast<TrafficClass>(c);
    uint64_t bytes = NetworkBytes(cls);
    if (bytes == 0) continue;
    out += "  ";
    out += TrafficClassName(cls);
    out += ": ";
    out += FormatBytes(bytes);
    out += "\n";
  }
  out += "  total network: " + FormatBytes(TotalNetworkBytes()) + "\n";
  if (uint64_t retrans = TotalRetransmitBytes(); retrans > 0) {
    out += "  retransmitted: " + FormatBytes(retrans) + "\n";
  }
  if (uint64_t recovery = TotalRecoveryBytes(); recovery > 0) {
    out += "  recovery (failed attempts): " + FormatBytes(recovery) + "\n";
  }
  return out;
}

StepAccumulator::StepAccumulator(std::string phase, uint32_t num_nodes)
    : node_in_(num_nodes, 0), node_out_(num_nodes, 0), node_cpu_(num_nodes, 0) {
  record_.phase = std::move(phase);
}

void StepAccumulator::Add(TrafficMatrix* run, uint32_t src, uint32_t dst,
                          MessageType type, uint64_t bytes) {
  run->Add(src, dst, type, bytes);
  const int t = static_cast<int>(type);
  if (src == dst) {
    record_.local_bytes += bytes;
    record_.local_bytes_by_type[t] += bytes;
    return;
  }
  record_.goodput_bytes += bytes;
  record_.network_bytes_by_type[t] += bytes;
  node_out_[src] += bytes;
  node_in_[dst] += bytes;
}

void StepAccumulator::AddRetransmit(TrafficMatrix* run, uint32_t src,
                                    uint32_t dst, MessageType type,
                                    uint64_t bytes) {
  run->AddRetransmit(src, dst, type, bytes);
  record_.retransmit_bytes += bytes;
  record_.retransmit_bytes_by_type[static_cast<int>(type)] += bytes;
}

void StepAccumulator::AddReliability(ReliabilityStats* run,
                                     const ReliabilityStats& wire) {
  run->faults.frames_dropped += wire.faults.frames_dropped;
  run->faults.frames_corrupted += wire.faults.frames_corrupted;
  run->faults.frames_duplicated += wire.faults.frames_duplicated;
  run->faults.messages_reordered += wire.faults.messages_reordered;
  run->retransmitted_frames += wire.retransmitted_frames;
  run->nack_messages += wire.nack_messages;
  record_.frames_dropped += wire.faults.frames_dropped;
  record_.frames_corrupted += wire.faults.frames_corrupted;
  record_.frames_duplicated += wire.faults.frames_duplicated;
  record_.retransmitted_frames += wire.retransmitted_frames;
  record_.nack_messages += wire.nack_messages;
}

StepRecord StepAccumulator::Close(const NetworkTimeModel& model) const {
  StepRecord step = record_;
  for (size_t node = 0; node < node_in_.size(); ++node) {
    step.max_node_bytes =
        std::max({step.max_node_bytes, node_in_[node], node_out_[node]});
    step.wall_seconds = std::max(step.wall_seconds, node_cpu_[node]);
  }
  step.net_seconds = model.NicSeconds(step.max_node_bytes);
  return step;
}

std::vector<std::pair<std::string, double>> PhaseSeconds(
    const std::vector<StepRecord>& steps) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(steps.size());
  for (const StepRecord& s : steps) out.emplace_back(s.phase, s.wall_seconds);
  return out;
}

double BarrierSeconds(const std::vector<StepRecord>& steps) {
  double total = 0;
  for (const StepRecord& s : steps) total += s.wall_seconds + s.net_seconds;
  return total;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  double b = static_cast<double>(bytes);
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / (1ULL << 30));
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", b / (1ULL << 20));
  } else if (bytes >= (1ULL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", b / (1ULL << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace tj
