// Network time model.
//
// The paper's testbed measured 0.093 GB/s per exclusive edge on 1 Gbit
// Ethernet (Section 4.2) and projects faster networks by scaling transfer
// time linearly with byte volume. We adopt the same linear model: given a
// traffic matrix, network time is estimated from the bottleneck — the
// busiest node NIC (switched full-duplex network, transfers overlap).
#ifndef TJ_NET_TIME_MODEL_H_
#define TJ_NET_TIME_MODEL_H_

#include <cstdint>

#include "net/traffic.h"

namespace tj {

struct NetworkTimeModel {
  /// Per-node (NIC) bandwidth in bytes/second, each direction.
  /// Default: the paper's measured 0.093 GB/s real edge rate.
  double node_bandwidth_bytes_per_sec = 0.093e9;

  /// Seconds one NIC needs to move `bytes` in one direction.
  double NicSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / node_bandwidth_bytes_per_sec;
  }

  /// Seconds to complete the transfers described by `traffic`, assuming all
  /// node pairs transfer concurrently: the slowest NIC decides.
  double BottleneckSeconds(const TrafficMatrix& traffic) const {
    return NicSeconds(traffic.MaxNodeBytes());
  }
};

/// Resource prices of the event-driven pipelined fabric
/// (net/pipelined_fabric.h). Tasks on a node's serial CPU and transfers on
/// its NIC are charged modeled seconds = bytes / bandwidth — never wall
/// time — so the makespan is fully deterministic and reproducible. The NIC
/// is priced by the same NetworkTimeModel the barrier fabric closes its
/// steps with. The CPU rate is deliberately within a small factor of the
/// NIC rate: sort, aggregation, serialization and join work on a tuple
/// stream run at memory-bandwidth-bound speeds on the paper's testbed,
/// which is what makes CPU/network overlap (Section 5) worth modeling at
/// all.
struct PipelineCostModel {
  NetworkTimeModel net;
  double cpu_bandwidth_bytes_per_sec = 0.25e9;

  double CpuSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / cpu_bandwidth_bytes_per_sec;
  }
};

}  // namespace tj

#endif  // TJ_NET_TIME_MODEL_H_
