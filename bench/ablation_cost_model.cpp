// Section 3.1 validation: the analytic network cost model against the
// simulator's measured traffic, across cluster sizes and widths.
//
// The paper's formulas assume uniform random placement and drop the 1/N
// in-place term for hash join; we enable the discount to compare apples
// to apples. Errors under a few percent validate both sides.
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "costmodel/network_cost.h"

namespace tj {
namespace bench {
namespace {

void Compare(uint32_t nodes, uint32_t r_payload, uint32_t s_payload,
             uint64_t keys, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = keys;
  spec.r_payload = r_payload;
  spec.s_payload = s_payload;
  spec.seed = seed;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;

  JoinStats stats;
  stats.num_nodes = nodes;
  stats.t_r = static_cast<double>(w.r.TotalRows());
  stats.t_s = static_cast<double>(w.s.TotalRows());
  stats.d_r = static_cast<double>(keys);
  stats.d_s = static_cast<double>(keys);
  stats.w_k = config.key_bytes;
  stats.w_r = r_payload;
  stats.w_s = s_payload;

  auto report = [&](const char* name, double model, uint64_t measured) {
    double err = measured > 0
                     ? 100.0 * (model - static_cast<double>(measured)) /
                           static_cast<double>(measured)
                     : 0.0;
    std::printf("    %-6s model %12.0f  measured %12" PRIu64 "  error %+6.2f%%\n",
                name, model, measured, err);
  };

  std::printf("  N=%u, payloads %u/%u bytes, %" PRIu64 " unique keys:\n",
              nodes, r_payload, s_payload, keys);
  report("BJ-R", BroadcastJoinCost(stats, true),
         ValueOrDie(TryRunBroadcastJoin(w.r, w.s, config, Direction::kRtoS))
             .traffic.TotalNetworkBytes());
  report("HJ", HashJoinCost(stats, /*discount_local=*/true),
         ValueOrDie(TryRunHashJoin(w.r, w.s, config))
             .traffic.TotalNetworkBytes());
  // The model prices location messages at wk (the node label is amortized
  // away, Section 2.4); run the simulator the same way via grouping.
  JoinConfig grouped = config;
  grouped.group_locations = true;
  report("2TJ-R", TrackJoin2Cost(stats),
         ValueOrDie(TryRunTrackJoin(w.r, w.s, grouped,
                                    TrackJoinVersion::k2Phase,
                                    Direction::kRtoS))
             .traffic.TotalNetworkBytes());
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  std::printf("=== Validation (paper section 3.1): analytic cost model vs "
              "simulated traffic ===\n\n");
  tj::bench::Compare(4, 16, 56, 200000, args.seed);
  tj::bench::Compare(16, 16, 56, 200000, args.seed);
  tj::bench::Compare(16, 8, 8, 200000, args.seed);
  tj::bench::Compare(64, 28, 60, 100000, args.seed);
  return 0;
}
