// Section 5 ablation: CPU/network overlap of pipelined track join, measured
// on the event-driven fabric.
//
// "A pipelined implementation can reduce end-to-end time by overlapping
// CPU and network. Track join is more complex than hash join, offering
// more choices for overlap." Section 1 runs pipelined 2TJ-R and 4TJ on
// workloads X and Y under both egress schedulers and prints each run's
// modeled makespan next to its barrier makespan (the same run's sum of
// per-stage maxima, i.e. what the barrier fabric would take) and the
// overlap won. Hash join has no pipelined driver yet: its overlap row
// returns once Grace hash join runs on the event fabric. Section 2 is the
// scheduler x chunk x window grid behind the EXPERIMENTS.md blame table.
#include <cinttypes>
#include <cstdio>

#include "bench/real_bench.h"
#include "core/pipelined_track_join.h"
#include "workload/generator.h"

namespace tj {
namespace bench {
namespace {

void Overlap(const char* label, const RealJoinSpec& spec, bool original_order,
             uint64_t scale, uint32_t nodes, uint64_t seed) {
  Workload w = InstantiateReal(spec, nodes, scale, original_order, seed);
  std::printf("%s %" PRIu64 " x %" PRIu64 " tuples (1/%" PRIu64
              " scale), %u nodes\n",
              label, w.r.TotalRows(), w.s.TotalRows(), scale, nodes);
  std::printf("  %-6s %-5s %12s %12s %8s\n", "algo", "sched", "makespan",
              "barrier", "overlap");
  struct Algo {
    const char* name;
    TrackJoinVersion version;
  };
  const Algo algorithms[] = {{"2TJ-R", TrackJoinVersion::k2Phase},
                             {"4TJ", TrackJoinVersion::k4Phase}};
  for (const Algo& algo : algorithms) {
    for (bool drr : {false, true}) {
      JoinConfig config = RealConfig(spec, nodes);
      config.pipeline.enabled = true;
      config.pipeline.drr = drr;
      Result<JoinResult> result =
          TryRunPipelinedTrackJoin(w.r, w.s, config, algo.version);
      if (!result.ok()) {
        std::printf("  %-6s %-5s  error: %s\n", algo.name, drr ? "drr" : "fifo",
                    result.status().ToString().c_str());
        continue;
      }
      std::printf("  %-6s %-5s %11.4fs %11.4fs %+7.1f%%\n", algo.name,
                  drr ? "drr" : "fifo", result->makespan_seconds,
                  result->barrier_makespan_seconds,
                  100.0 * (1.0 - result->makespan_seconds /
                                     result->barrier_makespan_seconds));
    }
  }
  std::printf("\n");
}

// Event-driven fabric grid: egress scheduler (fifo | drr) x chunk size x
// credit window, on the EXPERIMENTS.md "Makespan blame" workload. Each
// cell runs the real pipelined driver and decomposes its critical path,
// so the table shows where the single-FIFO egress loses time to
// head-of-line blocking and what DRR buys back. Blame columns are percent
// of makespan.
void FabricGridCell(const Workload& w, bool drr, uint64_t chunk_bytes,
                    uint64_t window_bytes) {
  JoinConfig config;
  config.node_bytes = NodeIdBytes(w.r.num_nodes());
  config.pipeline.enabled = true;
  config.pipeline.drr = drr;
  config.pipeline.chunk_bytes = chunk_bytes;
  config.pipeline.inbox_budget_bytes = window_bytes;
  config.collect_blame = true;
  Result<JoinResult> result =
      TryRunPipelinedTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase);
  if (!result.ok()) {
    std::printf("  %-5s %6" PRIu64 " %8" PRIu64 "  error: %s\n",
                drr ? "drr" : "fifo", chunk_bytes, window_bytes,
                result.status().ToString().c_str());
    return;
  }
  const JoinResult& r = *result;
  const BlameReport& blame = *r.blame;
  const double mk = static_cast<double>(blame.makespan_us);
  auto pct = [&](BlameClass c) {
    return 100.0 * static_cast<double>(blame.class_us[static_cast<int>(c)]) /
           mk;
  };
  std::printf("  %-5s %6" PRIu64 " %8" PRIu64 " %9" PRId64 "us %9.0fus "
              "%+7.1f%% %10.1f%% %10.1f%% %8.1f%% %6.1f%%%s\n",
              drr ? "drr" : "fifo", chunk_bytes, window_bytes,
              blame.makespan_us, r.barrier_makespan_seconds * 1e6,
              100.0 * (1.0 - r.makespan_seconds / r.barrier_makespan_seconds),
              pct(BlameClass::kCreditHol), pct(BlameClass::kEgressHol),
              pct(BlameClass::kDrrWait),
              100.0 * static_cast<double>(blame.hol_us) / mk,
              blame.reconciled ? "" : "  UNRECONCILED");
}

void FabricGrid(uint32_t nodes, uint64_t keys, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.seed = seed;
  spec.matched_keys = keys;
  spec.r_multiplicity = 2;
  spec.s_multiplicity = 3;
  Workload w = GenerateWorkload(spec);

  std::printf(
      "=== Fabric grid: egress scheduler x chunk x credit window, %u nodes "
      "===\nEvent-driven pipelined 4TJ, %" PRIu64
      " matched keys (rmult=2, smult=3) — the\nEXPERIMENTS.md blame-table "
      "workload. 'window' is --inbox-budget; blame\ncolumns are %% of "
      "makespan; HOL = credit_hol + egress_hol.\n\n",
      nodes, keys);
  std::printf("  %-5s %6s %8s %11s %11s %8s %11s %11s %9s %7s\n", "sched",
              "chunk", "window", "makespan", "barrier", "overlap",
              "credit_hol", "egress_hol", "drr_wait", "HOL");
  const uint64_t chunks[] = {1024, 4096, 16384};
  const uint64_t windows[] = {1u << 15, 1u << 19};
  for (bool drr : {false, true}) {
    for (uint64_t window : windows) {
      for (uint64_t chunk : chunks) {
        FabricGridCell(w, drr, chunk, window);
      }
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint32_t nodes = args.nodes ? args.nodes : 4;
  std::printf(
      "=== Ablation (paper section 5): CPU/network overlap on the event "
      "fabric, %u nodes ===\n"
      "Modeled seconds at the simulated scale; 'barrier' = the same run's "
      "sum of per-stage maxima;\n'overlap' = 1 - makespan/barrier. Hash "
      "join has no pipelined driver yet, so no HJ row.\n\n",
      nodes);
  tj::bench::Overlap("Workload X, original ordering:", tj::WorkloadX(1), true,
                     args.scale ? args.scale : 2000, nodes, args.seed);
  tj::bench::Overlap("Workload Y, shuffled:", tj::WorkloadY(), false,
                     args.scale ? args.scale : 500, nodes, args.seed);
  tj::bench::FabricGrid(args.nodes ? args.nodes : 8,
                        args.scale ? args.scale : 100000, args.seed);
  return 0;
}
