// Section 3.3 ablation: semi-join Bloom filtering in front of hash join
// and track join, across input selectivities.
//
// Paper: "Track join does perfect semi-join filtering during tracking" —
// the filter broadcast mostly helps hash join (which otherwise ships
// non-matching tuples), while for track join it only thins tracking and
// "the cost of broadcasting the filters can exceed the cost of sending a
// few columns for reasonable cluster size N".
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/semi_join.h"

namespace tj {
namespace bench {
namespace {

void Sweep(uint64_t scale, uint32_t nodes, uint64_t seed) {
  std::printf("  %-12s %10s %10s %10s %10s %10s\n", "selectivity", "HJ",
              "filt-HJ", "2TJ", "filt-2TJ", "filter GiB");
  for (double selectivity : {1.0, 0.5, 0.2, 0.1, 0.02}) {
    uint64_t matched = 20000000ULL / scale;
    uint64_t unmatched = static_cast<uint64_t>(
        matched * (1.0 - selectivity) / selectivity);
    WorkloadSpec spec;
    spec.num_nodes = nodes;
    spec.matched_keys = matched;
    spec.r_unmatched = unmatched;
    spec.s_unmatched = unmatched;
    spec.r_payload = 12;
    spec.s_payload = 28;
    spec.seed = seed;
    Workload w = GenerateWorkload(spec);
    JoinConfig config;
    config.key_bytes = 4;
    config.node_bytes = NodeIdBytes(nodes);
    SemiJoinConfig semi;
    double p = static_cast<double>(scale);

    JoinResult hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
    JoinResult fhj = ValueOrDie(TryRunFilteredHashJoin(w.r, w.s, config, semi));
    JoinResult tj = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                               TrackJoinVersion::k2Phase,
                                               Direction::kRtoS));
    JoinResult ftj = ValueOrDie(TryRunFilteredTrackJoin(
        w.r, w.s, config, semi, TrackJoinVersion::k2Phase, Direction::kRtoS));
    std::printf("  %-12.2f %10.3f %10.3f %10.3f %10.3f %10.3f\n", selectivity,
                Gib(hj.traffic.TotalNetworkBytes() * p),
                Gib(fhj.traffic.TotalNetworkBytes() * p),
                Gib(tj.traffic.TotalNetworkBytes() * p),
                Gib(ftj.traffic.TotalNetworkBytes() * p),
                Gib(ftj.traffic.NetworkBytes(TrafficClass::kFilter) * p));
  }
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint64_t scale = args.scale ? args.scale : 2000;
  uint32_t nodes = args.nodes ? args.nodes : 8;
  std::printf(
      "=== Ablation (paper section 3.3): two-way Bloom semi-join filtering, "
      "%u nodes, 10 bits/key ===\n"
      "(2e7 matched tuples/table at paper scale; selectivity = matched "
      "fraction)\n\n",
      nodes);
  tj::bench::Sweep(scale, nodes, args.seed);
  return 0;
}
