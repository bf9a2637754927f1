// Skew & load-balance ablation (paper Section 5 future work).
//
// Zipf-distributed keys create hot keys that (a) repeat on both sides —
// stressing the per-key scheduler — and (b) concentrate traffic on a few
// nodes. Balance-aware 4TJ spends the schedules' cost-free choices
// (migration destinations, direction ties) on the coolest nodes: total
// traffic is unchanged by construction, but the bottleneck NIC's share —
// which bounds completion time — drops.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "net/time_model.h"

namespace tj {
namespace bench {
namespace {

void Sweep(uint32_t nodes, uint64_t seed) {
  std::printf("  %-6s %10s %10s | %10s %10s %10s\n", "theta", "HJ tot",
              "4TJ tot", "HJ max", "4TJ max", "4TJbal max");
  // Output cardinality grows quadratically with the hottest key's share,
  // so the sweep stays modest by default; raise rows for sharper numbers.
  for (double theta : {0.0, 0.5, 0.8, 1.0}) {
    ZipfWorkloadSpec spec;
    spec.num_nodes = nodes;
    spec.key_domain = 20000;
    spec.r_rows = 60000;
    spec.s_rows = 60000;
    spec.r_theta = theta;
    spec.s_theta = theta;
    spec.r_payload = 12;
    spec.s_payload = 28;
    spec.seed = seed;
    Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));
    JoinConfig config;
    config.key_bytes = 4;
    config.node_bytes = NodeIdBytes(nodes);
    JoinConfig balanced = config;
    balanced.balance_loads = true;

    JoinResult hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
    JoinResult tj4 = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
    JoinResult tj4b = ValueOrDie(TryRunTrackJoin(w.r, w.s, balanced,
                                                 TrackJoinVersion::k4Phase));
    if (tj4.checksum.digest() != hj.checksum.digest() ||
        tj4b.checksum.digest() != hj.checksum.digest()) {
      std::fprintf(stderr, "FATAL: join results disagree at theta=%.2f\n",
                   theta);
      std::exit(1);
    }
    auto mib = [](uint64_t b) { return b / double(1 << 20); };
    std::printf("  %-6.2f %9.2fM %9.2fM | %9.2fM %9.2fM %9.2fM\n", theta,
                mib(hj.traffic.TotalNetworkBytes()),
                mib(tj4.traffic.TotalNetworkBytes()),
                mib(hj.traffic.MaxNodeBytes()),
                mib(tj4.traffic.MaxNodeBytes()),
                mib(tj4b.traffic.MaxNodeBytes()));
  }
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint32_t nodes = args.nodes ? args.nodes : 8;
  std::printf(
      "=== Ablation (paper section 5): key skew & balance-aware scheduling, "
      "%u nodes ===\n"
      "'tot' = total network MiB; 'max' = busiest NIC's MiB (bounds "
      "completion time).\n4TJbal must match 4TJ's total while lowering the "
      "max.\n\n",
      nodes);
  tj::bench::Sweep(nodes, args.seed);
  return 0;
}
