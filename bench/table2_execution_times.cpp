// Table 2: CPU and network time for the slowest joins of workloads X and Y
// (original and shuffled orderings) under hash join and all three track
// join versions, on the paper's 4-node 1 GbE testbed.
//
// Paper (seconds):
//            HJ       2TJ      3TJ      4TJ
//  X orig  CPU 4.308 / 5.396 / 6.842 / 7.500   net 87.75/38.86/44.43/44.39
//  X shuf  CPU 4.598 / 6.457 / 7.601 / 8.290   net 87.83/61.96/67.12/67.52
//  Y orig  CPU 2.301 / 2.279 / 3.355 / 2.400   net 30.10/10.80/11.15/10.48
//  Y shuf  CPU 2.331 / 2.635 / 3.536 / 2.541   net 30.19/28.67/29.52/18.23
//
// Our CPU seconds are measured on the scaled-down inputs and projected
// linearly; network seconds are modeled as the busiest NIC's byte volume
// through the paper's measured 0.093 GB/s edge rate. Absolute values
// differ from the paper's hardware; the algorithm-to-algorithm ratios are
// the reproduced result. Both rows come from each run's StepProfile
// (obs/step_profile.h): CPU is the summed per-step wall time, net is the
// whole-run NIC bottleneck the profile carries.
#include <cinttypes>
#include <cstdio>

#include "bench/real_bench.h"
#include "net/time_model.h"
#include "obs/step_profile.h"

namespace tj {
namespace bench {
namespace {

struct Row {
  double cpu[4];
  double net[4];
};

Row RunSuite(const RealJoinSpec& spec, bool original_order, uint64_t scale,
             uint32_t nodes, uint64_t seed, ThreadPool* pool) {
  JoinConfig config = RealConfig(spec, nodes);
  config.thread_pool = pool;
  Workload w = InstantiateReal(spec, nodes, scale, original_order, seed);
  NetworkTimeModel model;
  Row row{};
  const JoinAlgorithm algorithms[4] = {
      JoinAlgorithm::kHash, JoinAlgorithm::kTrack2R, JoinAlgorithm::kTrack3,
      JoinAlgorithm::kTrack4};
  for (int i = 0; i < 4; ++i) {
    JoinResult result = RunAlgorithm(algorithms[i], w.r, w.s, config);
    const StepProfile& prof = result.profile;
    row.cpu[i] = prof.TotalWallSeconds() * static_cast<double>(scale);
    // Scale linearly: bytes scale with cardinality. run_max_node_bytes is
    // the whole-run NIC bottleneck (== TrafficMatrix::MaxNodeBytes).
    row.net[i] = static_cast<double>(prof.run_max_node_bytes) /
                 model.node_bandwidth_bytes_per_sec *
                 static_cast<double>(scale);
  }
  return row;
}

void PrintRow(const char* label, const Row& row) {
  std::printf("  %-7s CPU    %8.3f %8.3f %8.3f %8.3f\n", label, row.cpu[0],
              row.cpu[1], row.cpu[2], row.cpu[3]);
  std::printf("  %-7s net    %8.3f %8.3f %8.3f %8.3f\n", "", row.net[0],
              row.net[1], row.net[2], row.net[3]);
  std::printf("  %-7s net/HJ %8.3f %8.3f %8.3f %8.3f\n", "", 1.0,
              row.net[1] / row.net[0], row.net[2] / row.net[0],
              row.net[3] / row.net[0]);
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint32_t nodes = args.nodes ? args.nodes : 4;
  uint64_t x_scale = args.scale ? args.scale : 2000;
  uint64_t y_scale = args.scale ? args.scale : 500;
  std::printf(
      "=== Table 2: CPU & network seconds (projected to paper scale), %u "
      "nodes, 0.093 GB/s per NIC ===\n"
      "Columns: HJ, 2TJ (R->S), 3TJ, 4TJ. Paper net/HJ ratios:\n"
      "  X orig 0.44/0.51/0.51, X shuf 0.71/0.76/0.77,\n"
      "  Y orig 0.36/0.37/0.35, Y shuf 0.95/0.98/0.60.\n\n",
      nodes);
  std::printf("  %-7s %-6s %8s %8s %8s %8s\n", "input", "", "HJ", "2TJ", "3TJ",
              "4TJ");
  auto pool = tj::bench::MakePool(args);
  tj::bench::PrintRow(
      "X orig", tj::bench::RunSuite(tj::WorkloadX(1), true, x_scale, nodes,
                                    args.seed, pool.get()));
  tj::bench::PrintRow(
      "X shuf", tj::bench::RunSuite(tj::WorkloadX(1), false, x_scale, nodes,
                                    args.seed, pool.get()));
  tj::bench::PrintRow(
      "Y orig", tj::bench::RunSuite(tj::WorkloadY(), true, y_scale, nodes,
                                    args.seed, pool.get()));
  tj::bench::PrintRow(
      "Y shuf", tj::bench::RunSuite(tj::WorkloadY(), false, y_scale, nodes,
                                    args.seed, pool.get()));
  return 0;
}
