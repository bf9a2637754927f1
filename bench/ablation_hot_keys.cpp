// Hot-key splitting ablation.
//
// Under heavy Zipf skew the traffic-optimal per-key schedule funnels each
// head key's entire cartesian product through a single migration
// destination: one node absorbs the key's full ingress AND produces its
// full output. Splitting fragments the hot key's larger side across w
// workers and broadcasts the smaller side to them, trading a bounded
// amount of extra broadcast traffic for a ~w-fold drop in that per-node
// bottleneck. Payloads are asymmetric (fat R, thin S) so the broadcast
// side is genuinely the cheap one to copy.
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"

namespace tj {
namespace bench {
namespace {

uint64_t MaxIngress(const JoinResult& result, uint32_t nodes) {
  uint64_t worst = 0;
  for (uint32_t node = 0; node < nodes; ++node) {
    worst = std::max(worst, result.traffic.IngressBytes(node));
  }
  return worst;
}

uint64_t MaxOutput(const JoinResult& result) {
  uint64_t worst = 0;
  for (uint64_t rows : result.node_output_rows) worst = std::max(worst, rows);
  return worst;
}

void Sweep(uint32_t nodes, uint64_t seed) {
  std::printf("  %-6s %9s %9s | %9s %9s | %10s %10s %6s\n", "theta",
              "tot off", "tot on", "ingr off", "ingr on", "out off",
              "out on", "split");
  for (double theta : {0.8, 1.0, 1.2}) {
    ZipfWorkloadSpec spec;
    spec.num_nodes = nodes;
    spec.key_domain = 20000;
    spec.r_rows = 40000;
    spec.s_rows = 40000;
    spec.r_theta = theta;
    spec.s_theta = theta;
    spec.r_payload = 64;  // Fat fragment side...
    spec.s_payload = 8;   // ...thin broadcast side.
    spec.seed = seed;
    Workload w = ValueOrDie(TryGenerateZipfWorkload(spec));

    JoinConfig config;
    config.key_bytes = 4;
    config.node_bytes = NodeIdBytes(nodes);
    JoinConfig split = config;
    split.hot_key_threshold = 200000;
    split.hot_key_max_split = 4;

    JoinResult hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
    JoinResult off = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
    JoinResult on = ValueOrDie(TryRunTrackJoin(w.r, w.s, split,
                                               TrackJoinVersion::k4Phase));
    if (off.checksum.digest() != hj.checksum.digest() ||
        on.checksum.digest() != hj.checksum.digest() ||
        on.output_rows != off.output_rows) {
      std::fprintf(stderr, "FATAL: join results disagree at theta=%.2f\n",
                   theta);
      std::exit(1);
    }
    uint64_t frag = on.traffic.NetworkBytes(MessageType::kFragmentR) +
                    on.traffic.NetworkBytes(MessageType::kFragmentS);
    auto mib = [](uint64_t b) { return b / double(1 << 20); };
    std::printf("  %-6.2f %8.2fM %8.2fM | %8.2fM %8.2fM | %9" PRIu64
                "k %9" PRIu64 "k %6s\n",
                theta, mib(off.traffic.TotalNetworkBytes()),
                mib(on.traffic.TotalNetworkBytes()), mib(MaxIngress(off, nodes)),
                mib(MaxIngress(on, nodes)), MaxOutput(off) / 1000,
                MaxOutput(on) / 1000, frag > 0 ? "yes" : "no");
  }
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint32_t nodes = args.nodes ? args.nodes : 8;
  std::printf(
      "=== Ablation: hot-key splitting (partitioned broadcast), %u nodes "
      "===\n"
      "4TJ with --hot-key-threshold off vs on. 'tot' = total network MiB; "
      "'ingr' =\nbusiest node's received MiB; 'out' = busiest node's output "
      "rows (compute\nbottleneck). Splitting must leave results identical "
      "and cut the max\noutput roughly by the split width once keys cross "
      "the threshold.\n\n",
      nodes);
  tj::bench::Sweep(nodes, args.seed);
  return 0;
}
