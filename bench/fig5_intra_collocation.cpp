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
  auto run = [&](const std::vector<uint32_t>& pattern, const char* name) {
    tj::bench::RunPattern(pattern, name, tj::Collocation::kIntra, scale, nodes,
                          args.seed);
  };
  run({5}, "5,0,0,...");
  run({2, 2, 1}, "2,2,1,0,0,...");
  run({1, 1, 1, 1, 1}, "1,1,1,1,1,0,0,...");
  return 0;
}
