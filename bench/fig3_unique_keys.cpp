// Figure 3: synthetic dataset of 10^9 vs 10^9 tuples with ~10^9 unique
// join keys on 16 nodes. Three experiments sweep the R tuple width
// (20/40/60 bytes, key included) against a fixed 60-byte S width.
//
// Paper series (GiB, 16 nodes): BJ-R overflows at 279.4/558.8/838.2,
// BJ-S at 838.2; HJ sits at ~70 GiB; all track join variants transfer
// only the R table plus tracking, roughly 27-37 GiB depending on width —
// "track join selectively broadcasts tuples from the table with smaller
// payloads to the one matching tuple from the table with larger payloads
// and the 2-phase version suffices".
#include <cstdio>

#include "bench/bench_util.h"

namespace tj {
namespace bench {
namespace {

void RunWidthExperiment(uint32_t r_width, uint32_t s_width, uint64_t scale,
                        uint32_t nodes, uint64_t seed) {
  constexpr uint64_t kPaperTuples = 1000000000ULL;
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = kPaperTuples / scale;
  spec.seed = seed;
  JoinConfig config;
  config.key_bytes = 4;
  config.node_bytes = NodeIdBytes(nodes);
  spec.r_payload = r_width - config.key_bytes;
  spec.s_payload = s_width - config.key_bytes;
  Workload w = GenerateWorkload(spec);

  std::printf("R width = %u bytes, S width = %u bytes "
              "(%" PRIu64 " x %" PRIu64 " tuples, projected x%" PRIu64 ")\n",
              r_width, s_width, w.r.TotalRows(), w.s.TotalRows(), scale);
  std::vector<JoinResult> results = RunAll(w, config);
  PrintTrafficTable(AllAlgorithms(), results, static_cast<double>(scale));
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint64_t scale = args.scale ? args.scale : 10000;
  uint32_t nodes = args.nodes ? args.nodes : 16;
  std::printf(
      "=== Figure 3: 1e9 x 1e9 tuples, ~1e9 unique join keys, %u nodes ===\n"
      "Paper: BJ-R 279.4/558.8/838.2 GiB (off-chart), BJ-S 838.2 GiB, HJ ~70\n"
      "GiB; all TJ variants ~27-37 GiB (tracking + one R copy per tuple).\n\n",
      nodes);
  tj::bench::RunWidthExperiment(20, 60, scale, nodes, args.seed);
  tj::bench::RunWidthExperiment(40, 60, scale, nodes, args.seed);
  tj::bench::RunWidthExperiment(60, 60, scale, nodes, args.seed);
  return 0;
}
