// Local-kernel throughput bench: the parallel radix partitioner and radix
// sort measured in tuples per second, plus the per-phase wall seconds of a
// small hash-join / 4-phase-track-join run (the StepProfile rows Tables 3
// and 4 are built from).
//
// Prints one JSON object to stdout; tools/bench_smoke.py runs this at a
// fixed small scale in CI and fails on >25% throughput regression against
// tools/bench_baseline.json.
//
//   --scale=<divisor>  divide the 8Mi-row base input by this (default 4).
//   --threads=<n>      thread pool size for the kernels (default 1).
//   --trace=<file>     enable span tracing and write Chrome trace JSON.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>

#include "bench/real_bench.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/track_join.h"
#include "exec/partition.h"
#include "exec/radix_sort.h"
#include "obs/step_profile.h"
#include "obs/trace.h"

namespace tj {
namespace bench {

constexpr int kReps = 3;
constexpr uint32_t kParts = 256;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-kReps wall seconds of `fn` (cold-cache noise goes to the max).
template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    double start = Now();
    fn();
    best = std::min(best, Now() - start);
  }
  return best;
}

void PrintPhases(const char* key, const StepProfile& prof, const char* tail) {
  std::printf("  \"%s\": {", key);
  for (size_t i = 0; i < prof.steps.size(); ++i) {
    std::printf("%s\n    \"%s\": %.6f", i ? "," : "",
                prof.steps[i].phase.c_str(), prof.steps[i].wall_seconds);
  }
  std::printf("\n  }%s\n", tail);
}

}  // namespace bench
}  // namespace tj

int main(int argc, char** argv) {
  using namespace tj;
  bench::Args args = bench::ParseArgs(argc, argv);
  // ParseArgs ignores flags it does not know; --trace is bench-local.
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  if (!trace_path.empty()) Tracer::Global().Enable();
  const uint64_t divisor = args.scale ? args.scale : 4;
  const uint64_t rows = (1ULL << 23) / divisor;
  auto pool = bench::MakePool(args);
  ThreadPool* p = pool.get();

  Rng rng(args.seed);
  TupleBlock block(8);
  uint8_t payload[8];
  for (uint64_t i = 0; i < rows; ++i) {
    uint64_t key = rng.Next();
    std::memcpy(payload, &key, 8);
    block.Append(key, payload);
  }

  double partition_s = bench::BestOf([&] {
    Result<PartitionLayout> layout = TryRadixPartition(block, bench::kParts, p);
    TJ_CHECK(layout.ok()) << layout.status().ToString();
  });
  double key_partition_s = bench::BestOf([&] {
    Result<KeyPartitionLayout> layout = TryRadixPartitionKeys(block, bench::kParts, p);
    TJ_CHECK(layout.ok()) << layout.status().ToString();
  });

  std::vector<uint32_t> base_values(rows);
  std::iota(base_values.begin(), base_values.end(), 0u);
  double sort_pairs_s = 1e300;
  for (int rep = 0; rep < bench::kReps; ++rep) {
    std::vector<uint64_t> keys = block.keys();
    std::vector<uint32_t> values = base_values;
    double start = bench::Now();
    RadixSortPairs(&keys, &values, p);
    sort_pairs_s = std::min(sort_pairs_s, bench::Now() - start);
  }
  double sort_block_s = 1e300;
  for (int rep = 0; rep < bench::kReps; ++rep) {
    TupleBlock copy = block;
    double start = bench::Now();
    SortBlockByKey(&copy, p);
    sort_block_s = std::min(sort_block_s, bench::Now() - start);
  }

  // Per-phase wall seconds of real join runs at a small fixed scale: the
  // same StepProfile rows the table3/table4 benches project to paper scale.
  const uint64_t join_scale = 8000;
  JoinConfig config = bench::RealConfig(WorkloadX(1));
  config.thread_pool = p;
  Workload w = InstantiateReal(WorkloadX(1), 4, join_scale, true, args.seed);
  StepProfile hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config)).profile;
  StepProfile tj4 = ValueOrDie(
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase)).profile;

  double n = static_cast<double>(rows);
  std::printf("{\n");
  std::printf("  \"rows\": %" PRIu64 ",\n", rows);
  std::printf("  \"threads\": %u,\n", args.threads);
  std::printf("  \"partition_parts\": %u,\n", bench::kParts);
  std::printf("  \"partition_tps\": %.0f,\n", n / partition_s);
  std::printf("  \"key_partition_tps\": %.0f,\n", n / key_partition_s);
  std::printf("  \"sort_pairs_tps\": %.0f,\n", n / sort_pairs_s);
  std::printf("  \"sort_block_tps\": %.0f,\n", n / sort_block_s);
  bench::PrintPhases("hj_phase_wall_s", hj, ",");
  bench::PrintPhases("tj4_phase_wall_s", tj4, "");
  std::printf("}\n");
  if (!trace_path.empty()) {
    const std::string json = Tracer::Global().ToChromeJson();
    FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
      std::fprintf(stderr, "cannot write trace file '%s'\n",
                   trace_path.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
  }
  return 0;
}
