// Figure 4: 2*10^8 unique 30-byte R tuples join 10^9 60-byte S tuples;
// every key repeats 5 times in S and the repeats follow the placement
// patterns 5,0,0,... / 2,2,1,0,0,... / 1,1,1,1,1,0,0,... (single-side
// intra-table collocation).
//
// Paper: with 5,0,0 all S repeats collocate and track join sends matching
// R tuples to a single node; with 2,2,1 traffic is still well below hash
// join; with 1,1,1,1,1 the selective broadcast pays 5 destinations per
// key. Because R is unique and narrow, shipping R to the S locations stays
// the per-key optimum even then — migration has nothing to consolidate —
// so all track join versions coincide and still undercut hash join.
#include <cstdio>

#include "bench/bench_util.h"

namespace tj {
namespace bench {
namespace {

void RunOneSidePattern(const std::vector<uint32_t>& pattern, const char* name,
                       uint64_t scale, uint32_t nodes, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = 200000000ULL / scale;
  spec.r_multiplicity = 1;
  spec.s_multiplicity = 5;
  spec.s_pattern = pattern;
  spec.r_pattern = {1};
  spec.collocation = Collocation::kIntra;
  spec.seed = seed;
  JoinConfig config;
  config.key_bytes = 4;
  config.node_bytes = NodeIdBytes(nodes);
  spec.r_payload = 30 - config.key_bytes;
  spec.s_payload = 60 - config.key_bytes;
  Workload w = GenerateWorkload(spec);

  std::printf("Pattern: %s  (%" PRIu64 " R x %" PRIu64 " S tuples, "
              "projected x%" PRIu64 ")\n",
              name, w.r.TotalRows(), w.s.TotalRows(), scale);
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
      "=== Figure 4: 2e8 unique R (30 B) x 1e9 S (60 B, 5 repeats/key), "
      "%u nodes ===\n"
      "Paper: HJ ~60 GiB flat; 5,0,0 -> TJ ~12 GiB; 2,2,1 -> TJ below HJ;\n"
      "1,1,1,1,1 -> TJ pays 5 destinations per key but still beats HJ.\n\n",
      nodes);
  auto run = [&](const std::vector<uint32_t>& pattern, const char* name) {
    tj::bench::RunOneSidePattern(pattern, name, scale, nodes, args.seed);
  };
  run({5}, "5,0,0,...");
  run({2, 2, 1}, "2,2,1,0,0,...");
  run({1, 1, 1, 1, 1}, "1,1,1,1,1,0,0,...");
  return 0;
}
