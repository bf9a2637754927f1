// Section 2.4 ablation: traffic compression on top of track join.
//
// Quantifies the three techniques the paper describes: delta-coding sorted
// tracking key streams, grouping location messages by node, and
// radix-prefix grouping of key columns — all orthogonal to the transfer
// schedule itself (tuple traffic is unchanged).
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "encoding/delta.h"
#include "encoding/prefix_group.h"

namespace tj {
namespace bench {
namespace {

void RunToggles(uint64_t scale, uint32_t nodes, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = 20000000ULL / scale;
  spec.s_multiplicity = 5;
  spec.s_pattern = {1, 1, 1, 1, 1};
  spec.collocation = Collocation::kIntra;
  spec.r_payload = 16;
  spec.s_payload = 16;
  spec.seed = seed;
  Workload w = GenerateWorkload(spec);

  std::printf("4-phase track join, %" PRIu64 " dense keys, 5 S-repeats "
              "scattered (worst case for location messages):\n\n",
              spec.matched_keys);
  std::printf("  %-28s %14s %14s %14s\n", "configuration", "keys&counts",
              "keys&nodes", "total GiB");
  struct Combo {
    const char* name;
    bool delta;
    bool group;
  };
  for (const Combo& combo :
       {Combo{"plain", false, false}, Combo{"delta tracking", true, false},
        Combo{"grouped locations", false, true},
        Combo{"delta + grouped", true, true}}) {
    JoinConfig config;
    config.key_bytes = 4;
    config.node_bytes = NodeIdBytes(nodes);
    config.delta_tracking = combo.delta;
    config.group_locations = combo.group;
    JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                   TrackJoinVersion::k4Phase));
    double p = static_cast<double>(scale);
    std::printf("  %-28s %14.3f %14.3f %14.3f\n", combo.name,
                Gib(result.traffic.NetworkBytes(TrafficClass::kKeysAndCounts) * p),
                Gib(result.traffic.NetworkBytes(TrafficClass::kKeysAndNodes) * p),
                Gib(result.traffic.TotalNetworkBytes() * p));
  }
  std::printf("\n");
}

void RunKeyColumnCodecs(uint64_t seed) {
  // A sorted dense key column as one node would ship during tracking.
  std::printf("Key-column codecs (1M dense 27-bit keys, bytes per key):\n\n");
  Rng rng(seed);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1000000; ++i) keys.push_back(rng.Below(1 << 27));
  uint64_t raw = keys.size() * 4;
  uint64_t delta = DeltaEncodedSize(keys, /*presorted=*/false);
  uint32_t best_prefix = BestPrefixBits(keys, 27);
  uint64_t grouped = PrefixGroupEncodedSize(keys, 27, best_prefix);
  std::printf("  %-24s %10.3f\n", "fixed 4-byte",
              static_cast<double>(raw) / keys.size());
  std::printf("  %-24s %10.3f\n", "delta + LEB128",
              static_cast<double>(delta) / keys.size());
  std::printf("  %-24s %10.3f  (prefix bits = %u)\n", "radix-prefix grouping",
              static_cast<double>(grouped) / keys.size(), best_prefix);
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint64_t scale = args.scale ? args.scale : 2000;
  uint32_t nodes = args.nodes ? args.nodes : 16;
  std::printf("=== Ablation (paper section 2.4): traffic compression layers "
              "===\n\n");
  tj::bench::RunToggles(scale, nodes, args.seed);
  tj::bench::RunKeyColumnCodecs(args.seed);
  return 0;
}
