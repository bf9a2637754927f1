// Figure 6: the Figure 5 dataset with inter- AND intra-table collocation —
// matching keys of both tables share nodes per the pattern.
//
// Paper: "When all 10 repeats are collocated, track join eliminates all
// transfers of payloads. Messages used during the tracking phase can only
// be affected by the same case of locality as hash join."
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint64_t scale = args.scale ? args.scale : 2000;
  uint32_t nodes = args.nodes ? args.nodes : 16;
  std::printf(
      "=== Figure 6: 2e8 x 2e8 tuples, 4e7 keys, 5+5 repeats, inter- & "
      "intra-table collocation, %u nodes ===\n"
      "Paper: with 5,0,0 all ten repeats share a node and track join ships\n"
      "ZERO payload bytes; hash join stays ~16 GiB regardless.\n\n",
      nodes);
  auto run = [&](const std::vector<uint32_t>& pattern, const char* name) {
    tj::bench::RunPattern(pattern, name, tj::Collocation::kInter, scale, nodes,
                          args.seed);
  };
  run({5}, "5,0,0,...");
  run({2, 2, 1}, "2,2,1,0,0,...");
  run({1, 1, 1, 1, 1}, "1,1,1,1,1,0,0,...");
  return 0;
}
