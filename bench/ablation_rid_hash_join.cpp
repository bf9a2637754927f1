// Section 3.2 ablation: the tracking-aware (rid-based, late-materialized)
// hash join against plain hash join and 2-phase track join.
//
// The paper proves 2TJ subsumes rid-HJ: tracking ships each node's
// DISTINCT keys where rid-HJ ships the full key column, and the payload
// schedule is identical. This bench sweeps the payload width to show the
// gap, and shows rid-HJ's collapse when the output cardinality explodes.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/key_column_join.h"

namespace tj {
namespace bench {
namespace {

void Sweep(uint64_t scale, uint32_t nodes, uint64_t seed) {
  std::printf("Unique keys, 4-byte keys, narrow side 8 B payload; sweeping "
              "the wide side (GiB projected x%" PRIu64 "):\n\n",
              scale);
  std::printf("  %-10s %12s %12s %12s\n", "wide bytes", "HJ", "rid-HJ",
              "2TJ-R");
  for (uint32_t wide : {8u, 16u, 32u, 64u, 128u}) {
    WorkloadSpec spec;
    spec.num_nodes = nodes;
    spec.matched_keys = 100000000ULL / scale;
    spec.r_payload = 8;
    spec.s_payload = wide;
    spec.seed = seed;
    Workload w = GenerateWorkload(spec);
    JoinConfig config;
    config.key_bytes = 4;
    config.node_bytes = NodeIdBytes(nodes);
    double p = static_cast<double>(scale);
    JoinResult hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
    JoinResult rid = ValueOrDie(TryRunRidHashJoin(w.r, w.s, config));
    JoinResult tj2 = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k2Phase,
                                                Direction::kRtoS));
    std::printf("  %-10u %12.3f %12.3f %12.3f\n", wide,
                Gib(hj.traffic.TotalNetworkBytes() * p),
                Gib(rid.traffic.TotalNetworkBytes() * p),
                Gib(tj2.traffic.TotalNetworkBytes() * p));
  }
  std::printf("\n");
}

void OutputBlowup(uint64_t scale, uint32_t nodes, uint64_t seed) {
  std::printf("Repeated keys (multiplicity m on both sides, output m^2 per "
              "key): late materialization pays per OUTPUT row:\n\n");
  std::printf("  %-6s %12s %12s %12s\n", "m", "HJ", "rid-HJ", "4TJ");
  for (uint32_t m : {1u, 2u, 4u, 8u}) {
    WorkloadSpec spec;
    spec.num_nodes = nodes;
    spec.matched_keys = 20000000ULL / scale / m;
    spec.r_multiplicity = m;
    spec.s_multiplicity = m;
    spec.r_payload = 12;
    spec.s_payload = 28;
    spec.seed = seed;
    Workload w = GenerateWorkload(spec);
    JoinConfig config;
    config.key_bytes = 4;
    config.node_bytes = NodeIdBytes(nodes);
    double p = static_cast<double>(scale);
    JoinResult hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
    JoinResult rid = ValueOrDie(TryRunRidHashJoin(w.r, w.s, config));
    JoinResult tj4 = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                TrackJoinVersion::k4Phase));
    std::printf("  %-6u %12.3f %12.3f %12.3f\n", m,
                Gib(hj.traffic.TotalNetworkBytes() * p),
                Gib(rid.traffic.TotalNetworkBytes() * p),
                Gib(tj4.traffic.TotalNetworkBytes() * p));
  }
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint64_t scale = args.scale ? args.scale : 10000;
  uint32_t nodes = args.nodes ? args.nodes : 16;
  std::printf("=== Ablation (paper section 3.2): tracking-aware hash join "
              "===\n\n");
  tj::bench::Sweep(scale, nodes, args.seed);
  tj::bench::OutputBlowup(scale, nodes, args.seed);
  return 0;
}
