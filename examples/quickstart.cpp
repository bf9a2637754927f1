// Quickstart: run every distributed join algorithm on a small simulated
// cluster, verify they agree, and compare network traffic.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/track_join.h"
#include "workload/generator.h"

int main() {
  // A 4-node cluster; 100k distinct keys matched by both tables; S repeats
  // each key 3 times and keeps the repeats together on one node.
  tj::WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 100000;
  spec.s_multiplicity = 3;
  spec.s_pattern = {3};
  spec.collocation = tj::Collocation::kIntra;
  spec.r_payload = 12;  // Payload bytes per tuple, key excluded.
  spec.s_payload = 28;
  tj::Workload workload = tj::GenerateWorkload(spec);

  tj::JoinConfig config;
  config.key_bytes = 4;  // Serialized join-key width (the paper's wk).

  std::printf("join: %llu x %llu tuples on %u nodes -> %llu output rows\n\n",
              static_cast<unsigned long long>(workload.r.TotalRows()),
              static_cast<unsigned long long>(workload.s.TotalRows()),
              spec.num_nodes,
              static_cast<unsigned long long>(workload.expected_output_rows));

  struct Run {
    const char* name;
    tj::JoinResult result;
  };
  std::vector<Run> runs;
  runs.push_back({"hash join", tj::ValueOrDie(tj::TryRunHashJoin(
                                   workload.r, workload.s, config))});
  runs.push_back({"broadcast join (R)",
                  tj::ValueOrDie(tj::TryRunBroadcastJoin(
                      workload.r, workload.s, config, tj::Direction::kRtoS))});
  runs.push_back({"2-phase track join",
                  tj::ValueOrDie(tj::TryRunTrackJoin(
                      workload.r, workload.s, config,
                      tj::TrackJoinVersion::k2Phase, tj::Direction::kRtoS))});
  runs.push_back({"3-phase track join",
                  tj::ValueOrDie(tj::TryRunTrackJoin(
                      workload.r, workload.s, config,
                      tj::TrackJoinVersion::k3Phase))});
  runs.push_back({"4-phase track join",
                  tj::ValueOrDie(tj::TryRunTrackJoin(
                      workload.r, workload.s, config,
                      tj::TrackJoinVersion::k4Phase))});

  for (const Run& run : runs) {
    if (run.result.checksum.digest() != runs[0].result.checksum.digest()) {
      std::fprintf(stderr, "%s produced a different join result!\n", run.name);
      return 1;
    }
    std::printf("%-20s %10s network  (%llu rows verified)\n", run.name,
                tj::FormatBytes(run.result.traffic.TotalNetworkBytes()).c_str(),
                static_cast<unsigned long long>(run.result.output_rows));
  }

  std::printf("\n4-phase track join traffic by class:\n%s",
              runs.back().result.traffic.Report().c_str());
  return 0;
}
