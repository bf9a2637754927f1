// Cluster-size scaling ablation.
//
// The Section 3.1 cost model says hash join's traffic saturates at
// (1 - 1/N) of both tables while track join's payload term is
// N-independent for unique keys (each tuple travels to its single match's
// location, wherever that is); only the tracking and location messages
// feel N through the (1 - 1/N) network fraction. Broadcast join pays
// (N-1)x and falls off the chart immediately.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"

namespace tj {
namespace bench {
namespace {

void Sweep(uint64_t keys, uint64_t seed) {
  std::printf("  %-6s %12s %12s %12s %12s | %12s\n", "nodes", "BJ-R", "HJ",
              "2TJ-R", "4TJ", "4TJ tuples");
  for (uint32_t nodes : {2u, 4u, 8u, 16u, 32u, 64u}) {
    WorkloadSpec spec;
    spec.num_nodes = nodes;
    spec.matched_keys = keys;
    spec.r_payload = 16;
    spec.s_payload = 56;
    spec.seed = seed;
    Workload w = GenerateWorkload(spec);
    JoinConfig config;
    config.key_bytes = 4;
    auto mib = [](uint64_t b) { return b / double(1 << 20); };
    JoinResult bj = ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config,
                                                   Direction::kRtoS));
    JoinResult hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
    JoinResult tj2 = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k2Phase,
                                                Direction::kRtoS));
    JoinResult tj4 = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
    if (tj4.checksum.digest() != hj.checksum.digest()) {
      std::fprintf(stderr, "FATAL: results disagree at N=%u\n", nodes);
      std::exit(1);
    }
    std::printf("  %-6u %11.2fM %11.2fM %11.2fM %11.2fM | %11.2fM\n", nodes,
                mib(bj.traffic.TotalNetworkBytes()),
                mib(hj.traffic.TotalNetworkBytes()),
                mib(tj2.traffic.TotalNetworkBytes()),
                mib(tj4.traffic.TotalNetworkBytes()),
                mib(tj4.traffic.NetworkBytes(TrafficClass::kRTuples) +
                    tj4.traffic.NetworkBytes(TrafficClass::kSTuples)));
  }
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint64_t keys = 200000;
  if (args.scale) keys = 2000000000ULL / args.scale;
  std::printf(
      "=== Ablation: traffic vs cluster size (unique keys, 20/60 B tuples, "
      "%" PRIu64 " keys/table) ===\n"
      "HJ saturates at (1-1/N) of both tables; track join's tuple traffic "
      "is N-independent\n(one copy per R tuple), only tracking/location "
      "messages grow with the (1-1/N) fraction.\n\n",
      keys);
  tj::bench::Sweep(keys, args.seed);
  return 0;
}
