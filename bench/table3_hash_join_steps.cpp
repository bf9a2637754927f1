// Table 3: distributed hash join step-by-step breakdown on workloads X and
// Y (original and shuffled orderings).
//
// Paper rows (seconds, X orig): hash partition R 0.347 / S 0.478;
// transfer R 29.464 / S 57.199; local copy 0.115; sort received R 1.145 /
// S 1.627; final merge-join 0.601. Shuffling barely changes hash join.
//
// CPU rows are measured phase wall times on the scaled input (projected
// linearly); transfer and local-copy rows are modeled from the measured
// byte counts (0.093 GB/s NIC, 12.4 GB/s RAM-to-RAM copy — the paper's
// hardware numbers). All rows come from the run's StepProfile records
// (obs/step_profile.h) — the same per-phase observability data the
// production path records and `tjsim --profile` prints.
#include <cinttypes>
#include <cstdio>

#include "baseline/hash_join.h"
#include "bench/real_bench.h"
#include "common/logging.h"
#include "obs/step_profile.h"

namespace tj {
namespace bench {
namespace {

constexpr double kNicBytesPerSec = 0.093e9;
constexpr double kRamCopyBytesPerSec = 12.4e9;

struct Steps {
  double partition_r, partition_s;
  double transfer_r, transfer_s;
  double local_copy;
  double sort_r, sort_s;
  double merge_join;
};

Steps RunSteps(const RealJoinSpec& spec, bool original_order, uint64_t scale,
               uint32_t nodes, uint64_t seed, ThreadPool* pool) {
  JoinConfig config = RealConfig(spec, nodes);
  config.thread_pool = pool;
  Workload w = InstantiateReal(spec, nodes, scale, original_order, seed);
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, config));
  const StepProfile& prof = result.profile;
  double p = static_cast<double>(scale);
  Steps steps{};
  steps.partition_r =
      prof.WallSeconds("hash partition & transfer R tuples") * p;
  steps.partition_s =
      prof.WallSeconds("hash partition & transfer S tuples") * p;
  steps.sort_r = prof.WallSeconds("sort received R tuples") * p;
  steps.sort_s = prof.WallSeconds("sort received S tuples") * p;
  steps.merge_join = prof.WallSeconds("final merge-join") * p;
  // Per-node transfers overlap; the busiest sender bounds the step time.
  steps.transfer_r =
      prof.NetworkBytes(MessageType::kDataR) / nodes * p / kNicBytesPerSec;
  steps.transfer_s =
      prof.NetworkBytes(MessageType::kDataS) / nodes * p / kNicBytesPerSec;
  steps.local_copy = prof.TotalLocalBytes() / nodes * p / kRamCopyBytesPerSec;
  return steps;
}

void PrintColumn(const char* header, const Steps& s) {
  std::printf("%s\n", header);
  std::printf("  Hash partition R tuples   %10.3f\n", s.partition_r);
  std::printf("  Hash partition S tuples   %10.3f\n", s.partition_s);
  std::printf("  Transfer R tuples         %10.3f\n", s.transfer_r);
  std::printf("  Transfer S tuples         %10.3f\n", s.transfer_s);
  std::printf("  Local copy tuples         %10.3f\n", s.local_copy);
  std::printf("  Sort received R tuples    %10.3f\n", s.sort_r);
  std::printf("  Sort received S tuples    %10.3f\n", s.sort_s);
  std::printf("  Final merge-join          %10.3f\n\n", s.merge_join);
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
      "=== Table 3: distributed hash join steps (seconds, projected), %u "
      "nodes ===\n"
      "Paper X orig: 0.347/0.478 partition, 29.46/57.20 transfer, 0.115 "
      "copy,\n1.145/1.627 sort, 0.601 merge-join.\n\n",
      nodes);
  auto pool = tj::bench::MakePool(args);
  tj::bench::PrintColumn(
      "Workload X, original ordering:",
      tj::bench::RunSteps(tj::WorkloadX(1), true, x_scale, nodes, args.seed,
                          pool.get()));
  tj::bench::PrintColumn(
      "Workload X, shuffled:",
      tj::bench::RunSteps(tj::WorkloadX(1), false, x_scale, nodes, args.seed,
                          pool.get()));
  tj::bench::PrintColumn(
      "Workload Y, original ordering:",
      tj::bench::RunSteps(tj::WorkloadY(), true, y_scale, nodes, args.seed,
                          pool.get()));
  tj::bench::PrintColumn(
      "Workload Y, shuffled:",
      tj::bench::RunSteps(tj::WorkloadY(), false, y_scale, nodes, args.seed,
                          pool.get()));
  return 0;
}
