// Table 4: 4-phase track join step-by-step breakdown on workloads X and Y
// (original and shuffled orderings).
//
// Paper highlights (X orig, seconds): sort local 0.979/1.401, aggregate
// 0.229, transfer key+count 26.80, generate schedules 1.627, transfer
// R->S tuples 2.664 (27.53 shuffled), final merge-joins 0.419/0.342.
// "For X, scheduling takes half the time of local hash join, but is
// redundant since 2-phase track join suffices. For Y, scheduling is
// crucial and takes almost negligible time."
//
// CPU rows: measured phase wall times projected linearly; transfer and
// local-copy rows modeled from byte counts (0.093 GB/s NIC, 12.4 GB/s RAM
// copy), split by message type exactly as the paper's rows are. All rows
// come from the run's StepProfile records (obs/step_profile.h) — the same
// per-phase observability data `tjsim --profile` prints.
#include <cinttypes>
#include <cstdio>

#include "bench/real_bench.h"
#include "common/logging.h"
#include "core/track_join.h"
#include "obs/step_profile.h"

namespace tj {
namespace bench {
namespace {

constexpr double kNicBytesPerSec = 0.093e9;
constexpr double kRamCopyBytesPerSec = 12.4e9;

void RunColumn(const char* header, const RealJoinSpec& spec,
               bool original_order, uint64_t scale, uint32_t nodes,
               uint64_t seed, ThreadPool* pool) {
  JoinConfig config = RealConfig(spec, nodes);
  config.thread_pool = pool;
  Workload w = InstantiateReal(spec, nodes, scale, original_order, seed);
  JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                 TrackJoinVersion::k4Phase));
  const StepProfile& prof = result.profile;
  const double p = static_cast<double>(scale);
  auto cpu = [&](const char* name) { return prof.WallSeconds(name) * p; };
  auto nic = [&](MessageType type) {
    return prof.NetworkBytes(type) / nodes * p / kNicBytesPerSec;
  };
  auto ram = [&](MessageType type) {
    return prof.LocalBytes(type) / nodes * p / kRamCopyBytesPerSec;
  };

  std::printf("%s\n", header);
  std::printf("  Sort local R tuples            %10.3f\n",
              cpu("sort local R tuples"));
  std::printf("  Sort local S tuples            %10.3f\n",
              cpu("sort local S tuples"));
  std::printf("  Aggregate keys                 %10.3f\n",
              cpu("aggregate keys"));
  std::printf("  Hash part. keys, counts        %10.3f\n",
              cpu("hash partition & transfer keys"));
  std::printf("  Transfer key, count            %10.3f\n",
              nic(MessageType::kTrackR) + nic(MessageType::kTrackS));
  std::printf("  Local copy key, count          %10.3f\n",
              ram(MessageType::kTrackR) + ram(MessageType::kTrackS));
  std::printf("  Merge recv. key, count         %10.3f\n",
              cpu("merge received keys"));
  std::printf("  Generate schedules             %10.3f\n",
              cpu("generate schedules & send locations"));
  std::printf("  Tran. R->S keys, nodes         %10.3f\n",
              nic(MessageType::kLocationsToR) + nic(MessageType::kMigrateS));
  std::printf("  Tran. S->R keys, nodes         %10.3f\n",
              nic(MessageType::kLocationsToS) + nic(MessageType::kMigrateR));
  std::printf("  Local copy keys, nodes         %10.3f\n",
              ram(MessageType::kLocationsToR) + ram(MessageType::kLocationsToS) +
                  ram(MessageType::kMigrateR) + ram(MessageType::kMigrateS));
  std::printf("  Keys,nodes => payloads & part. %10.3f\n",
              cpu("selective broadcast & migrate"));
  std::printf("  Transfer R->S tuples           %10.3f\n",
              nic(MessageType::kDataR) + nic(MessageType::kMigrationDataR));
  std::printf("  Transfer S->R tuples           %10.3f\n",
              nic(MessageType::kDataS) + nic(MessageType::kMigrationDataS));
  std::printf("  Local copy R->S tuples         %10.3f\n",
              ram(MessageType::kDataR) + ram(MessageType::kMigrationDataR));
  std::printf("  Local copy S->R tuples         %10.3f\n",
              ram(MessageType::kDataS) + ram(MessageType::kMigrationDataS));
  std::printf("  Merge received tuples          %10.3f\n",
              cpu("merge received tuples"));
  std::printf("  Final merge-join R->S          %10.3f\n",
              cpu("final merge-join R->S"));
  std::printf("  Final merge-join S->R          %10.3f\n\n",
              cpu("final merge-join S->R"));
}

}  // namespace
}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  tj::bench::Args args = tj::bench::ParseArgs(argc, argv);
  uint32_t nodes = args.nodes ? args.nodes : 4;
  uint64_t x_scale = args.scale ? args.scale : 2000;
  uint64_t y_scale = args.scale ? args.scale : 500;
  std::printf(
      "=== Table 4: 4-phase track join steps (seconds, projected), %u nodes "
      "===\n\n",
      nodes);
  auto pool = tj::bench::MakePool(args);
  tj::bench::RunColumn("Workload X, original ordering:", tj::WorkloadX(1),
                       true, x_scale, nodes, args.seed, pool.get());
  tj::bench::RunColumn("Workload X, shuffled:", tj::WorkloadX(1), false,
                       x_scale, nodes, args.seed, pool.get());
  tj::bench::RunColumn("Workload Y, original ordering:", tj::WorkloadY(), true,
                       y_scale, nodes, args.seed, pool.get());
  tj::bench::RunColumn("Workload Y, shuffled:", tj::WorkloadY(), false,
                       y_scale, nodes, args.seed, pool.get());
  return 0;
}
