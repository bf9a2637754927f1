// Locality explorer: how each algorithm's network traffic responds as
// pre-existing data locality fades from perfect collocation to none.
//
// This is the core story of the paper: hash join is placement-invariant,
// while track join converts whatever locality exists into traffic savings
// and, in the 4-phase version, never does meaningfully worse than hash
// join even with none.
//
//   ./build/examples/locality_explorer [collocated_fraction_steps]
#include <cstdio>
#include <cstdlib>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/track_join.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  int steps = argc > 1 ? std::atoi(argv[1]) : 5;
  if (steps < 2) steps = 2;

  std::printf("Traffic (MiB) vs fraction of keys with collocated tuples\n");
  std::printf("(8 nodes, 50k keys, 2 R + 4 S repeats per key, 12/28 B "
              "payloads)\n\n");
  std::printf("%12s %10s %10s %10s %10s\n", "collocated", "HJ", "2TJ-R", "3TJ",
              "4TJ");

  for (int i = 0; i < steps; ++i) {
    double fraction = static_cast<double>(i) / (steps - 1);
    tj::WorkloadSpec spec;
    spec.num_nodes = 8;
    spec.matched_keys = 50000;
    spec.r_multiplicity = 2;
    spec.s_multiplicity = 4;
    spec.r_pattern = {2};
    spec.s_pattern = {4};
    spec.collocation = tj::Collocation::kInter;
    spec.collocated_fraction = fraction;
    spec.r_payload = 12;
    spec.s_payload = 28;
    tj::Workload w = tj::GenerateWorkload(spec);

    tj::JoinConfig config;
    config.key_bytes = 4;
    auto mib = [](const tj::JoinResult& r) {
      return static_cast<double>(r.traffic.TotalNetworkBytes()) / (1 << 20);
    };
    tj::JoinResult hj = tj::ValueOrDie(tj::TryRunHashJoin(w.r, w.s, config));
    tj::JoinResult tj2 = tj::ValueOrDie(tj::TryRunTrackJoin(
        w.r, w.s, config, tj::TrackJoinVersion::k2Phase, tj::Direction::kRtoS));
    tj::JoinResult tj3 = tj::ValueOrDie(tj::TryRunTrackJoin(
        w.r, w.s, config, tj::TrackJoinVersion::k3Phase));
    tj::JoinResult tj4 = tj::ValueOrDie(tj::TryRunTrackJoin(
        w.r, w.s, config, tj::TrackJoinVersion::k4Phase));
    if (tj4.checksum.digest() != hj.checksum.digest()) {
      std::fprintf(stderr, "join results disagree!\n");
      return 1;
    }
    std::printf("%11.0f%% %10.2f %10.2f %10.2f %10.2f\n", fraction * 100,
                mib(hj), mib(tj2), mib(tj3), mib(tj4));
  }
  std::printf(
      "\nHash join is flat; track join's traffic falls with locality, and\n"
      "4TJ stays competitive even at zero locality (the paper's Figures "
      "4-6).\n");
  return 0;
}
