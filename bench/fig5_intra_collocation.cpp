// Figure 5: 2*10^8 tuples per table over 4*10^7 unique keys (5 repeats per
// key on each side, 25 outputs per key), R 30 bytes / S 60 bytes. Repeats
// are intra-table collocated per the pattern, but the two tables are
// placed independently.
//
// Paper: HJ ~16 GiB flat across patterns; with 5,0,0 track join moves one
// side to the other's single location; with scattered repeats the 2TJ/3TJ
// selective broadcasts fan out while 4TJ first consolidates.
#include <cstdio>

#include "bench/bench_util.h"

namespace tj {
namespace bench {
namespace {

void RunPattern(const std::vector<uint32_t>& pattern, const char* name,
                uint64_t scale, uint32_t nodes, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = 40000000ULL / scale;
  spec.r_multiplicity = 5;
  spec.s_multiplicity = 5;
  spec.r_pattern = pattern;
  spec.s_pattern = pattern;
  spec.collocation = Collocation::kIntra;
  spec.seed = seed;
  JoinConfig config;
  config.key_bytes = 4;
  spec.r_payload = 30 - config.key_bytes;
  spec.s_payload = 60 - config.key_bytes;
  Workload w = GenerateWorkload(spec);

  std::printf("Pattern: %s  (%" PRIu64 " tuples/table, projected x%" PRIu64
              ")\n",
              name, w.r.TotalRows(), scale);
  std::vector<JoinResult> results = RunAll(w, config);
  PrintTrafficTable(AllAlgorithms(), results, static_cast<double>(scale));
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint64_t scale = args.scale ? args.scale : 2000;
  uint32_t nodes = args.nodes ? args.nodes : 16;
  std::printf(
      "=== Figure 5: 2e8 x 2e8 tuples, 4e7 keys, 5+5 repeats, intra-table "
      "collocation only, %u nodes ===\n"
      "Paper: HJ ~16 GiB flat; TJ wins under 5,0,0 and 2,2,1; scattered\n"
      "repeats favor 4TJ's migration over plain selective broadcast.\n\n",
      nodes);
  tj::bench::RunPattern({5}, "5,0,0,...", scale, nodes, args.seed);
  tj::bench::RunPattern({2, 2, 1}, "2,2,1,0,0,...", scale, nodes, args.seed);
  tj::bench::RunPattern({1, 1, 1, 1, 1}, "1,1,1,1,1,0,0,...", scale, nodes,
                        args.seed);
  return 0;
}
