#include "net/traffic.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace tj {

void TrafficMatrix::Reset(uint32_t num_nodes) {
  num_nodes_ = num_nodes;
  cells_.assign(
      static_cast<uint64_t>(num_nodes) * num_nodes * kNumMessageTypes, 0);
  retrans_cells_.assign(
      static_cast<uint64_t>(num_nodes) * num_nodes * kNumMessageTypes, 0);
  recovery_cells_.assign(
      static_cast<uint64_t>(num_nodes) * num_nodes * kNumMessageTypes, 0);
}

void TrafficMatrix::Add(uint32_t src, uint32_t dst, MessageType type,
                        uint64_t bytes) {
  TJ_CHECK_LT(src, num_nodes_);
  TJ_CHECK_LT(dst, num_nodes_);
  Cell(src, dst, static_cast<int>(type)) += bytes;
}

void TrafficMatrix::AddRetransmit(uint32_t src, uint32_t dst, MessageType type,
                                  uint64_t bytes) {
  TJ_CHECK_LT(src, num_nodes_);
  TJ_CHECK_LT(dst, num_nodes_);
  RetransCell(src, dst, static_cast<int>(type)) += bytes;
}

uint64_t TrafficMatrix::NetworkBytes(MessageType type) const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_nodes_; ++s) {
    for (uint32_t d = 0; d < num_nodes_; ++d) {
      if (s != d) total += Cell(s, d, static_cast<int>(type));
    }
  }
  return total;
}

uint64_t TrafficMatrix::NetworkBytes(TrafficClass cls) const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    if (ClassOf(static_cast<MessageType>(t)) == cls) {
      total += NetworkBytes(static_cast<MessageType>(t));
    }
  }
  return total;
}

uint64_t TrafficMatrix::TotalNetworkBytes() const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    total += NetworkBytes(static_cast<MessageType>(t));
  }
  return total;
}

uint64_t TrafficMatrix::LocalBytes(MessageType type) const {
  uint64_t total = 0;
  for (uint32_t n = 0; n < num_nodes_; ++n) {
    total += Cell(n, n, static_cast<int>(type));
  }
  return total;
}

uint64_t TrafficMatrix::LocalBytes(TrafficClass cls) const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    if (ClassOf(static_cast<MessageType>(t)) == cls) {
      total += LocalBytes(static_cast<MessageType>(t));
    }
  }
  return total;
}

uint64_t TrafficMatrix::TotalLocalBytes() const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    total += LocalBytes(static_cast<MessageType>(t));
  }
  return total;
}

uint64_t TrafficMatrix::EgressBytes(uint32_t node) const {
  uint64_t total = 0;
  for (uint32_t d = 0; d < num_nodes_; ++d) {
    if (d == node) continue;
    for (int t = 0; t < kNumMessageTypes; ++t) total += Cell(node, d, t);
  }
  return total;
}

uint64_t TrafficMatrix::IngressBytes(uint32_t node) const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_nodes_; ++s) {
    if (s == node) continue;
    for (int t = 0; t < kNumMessageTypes; ++t) total += Cell(s, node, t);
  }
  return total;
}

uint64_t TrafficMatrix::LinkBytes(uint32_t src, uint32_t dst) const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) total += Cell(src, dst, t);
  return total;
}

uint64_t TrafficMatrix::MaxNodeBytes() const {
  uint64_t best = 0;
  for (uint32_t n = 0; n < num_nodes_; ++n) {
    best = std::max({best, EgressBytes(n), IngressBytes(n)});
  }
  return best;
}

uint64_t TrafficMatrix::RetransmitBytes(MessageType type) const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_nodes_; ++s) {
    for (uint32_t d = 0; d < num_nodes_; ++d) {
      if (s != d) total += RetransCell(s, d, static_cast<int>(type));
    }
  }
  return total;
}

uint64_t TrafficMatrix::RetransmitBytes(TrafficClass cls) const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    if (ClassOf(static_cast<MessageType>(t)) == cls) {
      total += RetransmitBytes(static_cast<MessageType>(t));
    }
  }
  return total;
}

uint64_t TrafficMatrix::TotalRetransmitBytes() const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    total += RetransmitBytes(static_cast<MessageType>(t));
  }
  return total;
}

uint64_t TrafficMatrix::RecoveryBytes(MessageType type) const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < num_nodes_; ++s) {
    for (uint32_t d = 0; d < num_nodes_; ++d) {
      if (s != d) total += RecoveryCell(s, d, static_cast<int>(type));
    }
  }
  return total;
}

uint64_t TrafficMatrix::RecoveryBytes(TrafficClass cls) const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    if (ClassOf(static_cast<MessageType>(t)) == cls) {
      total += RecoveryBytes(static_cast<MessageType>(t));
    }
  }
  return total;
}

uint64_t TrafficMatrix::TotalRecoveryBytes() const {
  uint64_t total = 0;
  for (int t = 0; t < kNumMessageTypes; ++t) {
    total += RecoveryBytes(static_cast<MessageType>(t));
  }
  return total;
}

void TrafficMatrix::Merge(const TrafficMatrix& other) {
  TJ_CHECK_EQ(num_nodes_, other.num_nodes_);
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  for (size_t i = 0; i < retrans_cells_.size(); ++i) {
    retrans_cells_[i] += other.retrans_cells_[i];
  }
  for (size_t i = 0; i < recovery_cells_.size(); ++i) {
    recovery_cells_[i] += other.recovery_cells_[i];
  }
}

void TrafficMatrix::AccumulateRecovery(const TrafficMatrix& other,
                                       const std::vector<uint32_t>& node_map) {
  TJ_CHECK_EQ(node_map.size(), static_cast<size_t>(other.num_nodes_));
  for (uint32_t s = 0; s < other.num_nodes_; ++s) {
    uint32_t ms = node_map[s];
    TJ_CHECK_LT(ms, num_nodes_);
    for (uint32_t d = 0; d < other.num_nodes_; ++d) {
      uint32_t md = node_map[d];
      TJ_CHECK_LT(md, num_nodes_);
      for (int t = 0; t < kNumMessageTypes; ++t) {
        uint64_t bytes = other.Cell(s, d, t) + other.RetransCell(s, d, t) +
                         other.RecoveryCell(s, d, t);
        if (bytes > 0) RecoveryCell(ms, md, t) += bytes;
      }
    }
  }
}

TrafficMatrix TrafficMatrix::MappedTo(
    uint32_t num_nodes, const std::vector<uint32_t>& node_map) const {
  TJ_CHECK_EQ(node_map.size(), static_cast<size_t>(num_nodes_));
  TrafficMatrix out(num_nodes);
  for (uint32_t s = 0; s < num_nodes_; ++s) {
    uint32_t ms = node_map[s];
    TJ_CHECK_LT(ms, num_nodes);
    for (uint32_t d = 0; d < num_nodes_; ++d) {
      uint32_t md = node_map[d];
      TJ_CHECK_LT(md, num_nodes);
      for (int t = 0; t < kNumMessageTypes; ++t) {
        out.Cell(ms, md, t) += Cell(s, d, t);
        out.RetransCell(ms, md, t) += RetransCell(s, d, t);
        out.RecoveryCell(ms, md, t) += RecoveryCell(s, d, t);
      }
    }
  }
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
