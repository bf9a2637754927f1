// Local-kernel throughput bench: the parallel radix partitioner and radix
// sort measured in tuples per second, plus the per-phase wall seconds of a
// small hash-join / 4-phase-track-join run (the StepProfile rows Tables 3
// and 4 are built from).
//
// Also reports seven same-run ratios of serial wall times, which hold
// across machines (best of 3 runs each unless noted):
//   tj4_pipelined_over_barrier_wall  pipelined 4TJ (DRR) ÷ barrier 4TJ on
//                                    workload X at scale 1/2000, the
//                                    median of 15 alternating pairs;
//   tj4_pipelined_over_barrier_wall_zipf
//                                    the same on a small Zipf 0.8 input
//                                    (hot keys), also 15 pairs;
//   tj4_pipelined_scaling            pipelined 4TJ at 1/1000 ÷ at 1/2000,
//                                    about 2 for a linear-time driver,
//                                    the median of the same 15 reps;
//   y_checksum_join_over_join        merge join of workload Y/200 with the
//                                    checksum sink ÷ with a no-op sink;
//   barrier_node_scaling             barrier 4TJ on one small input over
//                                    256 nodes ÷ over 16 nodes, near 1
//                                    when a phase costs O(messages + N),
//                                    the median of 15 alternating pairs;
//   pipelined_node_scaling           pipelined 4TJ (DRR) on one small input
//                                    over 64 nodes ÷ over 8 nodes, what
//                                    per-link state costs the event fabric,
//                                    the median of 15 alternating pairs;
//   merge_received_over_sort         the received-run merge the barrier
//                                    joins read (MergedRuns), drained
//                                    from 8 key-ascending serialized
//                                    runs into a block ÷
//                                    deserializing the same bytes and
//                                    sorting them, the median of 15
//                                    alternating pairs.
//
// Prints one JSON object to stdout; tools/bench_smoke.py runs this at a
// fixed small scale in CI and fails on >25% throughput regression against
// tools/bench_baseline.json, or when any ratio exceeds its ceiling.
//
//   --scale=<divisor>  divide the 8Mi-row base input by this (default 4).
//   --threads=<n>      thread pool size for the kernels (default 1).
//   --trace=<file>     enable span tracing and write Chrome trace JSON; each
//                      kernel also reports <kernel>_traced_tps, timed in
//                      reps that alternate with its untraced ones.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <span>
#include <string>

#include "bench/real_bench.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/pipelined_track_join.h"
#include "core/track_join.h"
#include "exec/local_join.h"
#include "exec/partition.h"
#include "exec/radix_sort.h"
#include "obs/step_profile.h"
#include "obs/trace.h"

namespace tj {
namespace bench {

constexpr int kReps = 3;
/// Alternating pairs behind each wall ratio of two drivers or two inputs:
/// the best of 3 per side spread 1.32-1.79 between runs of the
/// pipelined-over-barrier ratio, and the node-scaling ratios followed
/// machine load the same way.
constexpr int kWallRatioPairs = 15;
/// Alternating merge/sort pairs behind the merge-received-over-sort ratio.
constexpr int kMergeRatioPairs = 15;
constexpr uint32_t kParts = 256;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall seconds of one call of `fn`.
template <typename Fn>
double Seconds(Fn&& fn) {
  const double start = Now();
  fn();
  return Now() - start;
}

/// Best untraced and best traced seconds of one kernel over kReps reps
/// each, after one untimed warm-up (cold-cache noise goes to the max).
/// `rep` runs the kernel once and returns the seconds it timed. With
/// `tracing`, reps alternate tracer off and on and the tracer is left on,
/// so both bests come from one process and the same fraction of a second:
/// run-to-run noise and heap state, which differ more between processes
/// than the tracer costs, cancel out. Without it, traced stays 0.
struct KernelSeconds {
  double untraced = 1e300;
  double traced = 0;
};
template <typename Rep>
KernelSeconds TimeKernel(Rep&& rep, bool tracing) {
  KernelSeconds out;
  if (tracing) out.traced = 1e300;
  rep();
  for (int r = 0; r < kReps * (tracing ? 2 : 1); ++r) {
    const bool traced = tracing && r % 2 == 1;
    if (tracing) {
      traced ? Tracer::Global().Enable() : Tracer::Global().Disable();
    }
    double& best = traced ? out.traced : out.untraced;
    best = std::min(best, rep());
  }
  if (tracing) Tracer::Global().Enable();
  return out;
}

/// The median of per-rep ratios, which it reorders.
double Median(std::span<double> ratios) {
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  return ratios[ratios.size() / 2];
}

/// Prints "<name>_tps" and, for a traced run, "<name>_traced_tps".
void PrintKernel(const char* name, double rows, const KernelSeconds& k) {
  std::printf("  \"%s_tps\": %.0f,\n", name, rows / k.untraced);
  if (k.traced > 0) {
    std::printf("  \"%s_traced_tps\": %.0f,\n", name, rows / k.traced);
  }
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

  const bool tracing = !trace_path.empty();
  if (tracing) Tracer::Global().Enable();
  const bench::KernelSeconds partition = bench::TimeKernel(
      [&] {
        return bench::Seconds(
            [&] { ValueOrDie(TryRadixPartition(block, bench::kParts, p)); });
      },
      tracing);
  const bench::KernelSeconds key_partition = bench::TimeKernel(
      [&] {
        return bench::Seconds([&] {
          ValueOrDie(TryRadixPartitionKeys(block, bench::kParts, p));
        });
      },
      tracing);

  std::vector<uint32_t> base_values(rows);
  std::iota(base_values.begin(), base_values.end(), 0u);
  const bench::KernelSeconds sort_pairs = bench::TimeKernel(
      [&] {
        std::vector<uint64_t> keys = block.keys();
        std::vector<uint32_t> values = base_values;
        return bench::Seconds([&] { RadixSortPairs(&keys, &values, p); });
      },
      tracing);
  const bench::KernelSeconds sort_block = bench::TimeKernel(
      [&] {
        TupleBlock copy = block;
        return bench::Seconds([&] { SortBlockByKey(&copy, p); });
      },
      tracing);

  // Per-phase wall seconds of real join runs at a small fixed scale: the
  // same StepProfile rows the table3/table4 benches project to paper scale.
  const uint64_t join_scale = 8000;
  JoinConfig config = bench::RealConfig(WorkloadX(1), 4);
  config.thread_pool = p;
  Workload w = InstantiateReal(WorkloadX(1), 4, join_scale, true, args.seed);
  StepProfile hj = ValueOrDie(TryRunHashJoin(w.r, w.s, config)).profile;
  StepProfile tj4 = ValueOrDie(
      TryRunTrackJoin(w.r, w.s, config, TrackJoinVersion::k4Phase)).profile;

  // Pipelined vs barrier 4TJ, both serial (no pool), on 8-node workload X
  // inputs: the wall ratio at X/2000, the median over kWallRatioPairs reps
  // of each rep's pipelined ÷ barrier wall, and the pipelined wall at twice
  // the keys (X/1000) over X/2000, the median over the same reps of each
  // rep's ratio. The runs of a rep alternate, so drift in machine speed
  // hits all of them alike.
  JoinConfig barrier_config = bench::RealConfig(WorkloadX(1), 8);
  JoinConfig pipelined_config = barrier_config;
  pipelined_config.pipeline.enabled = true;
  pipelined_config.pipeline.drr = true;
  auto barrier = [&](const Workload& input) {
    return ValueOrDie(TryRunTrackJoin(input.r, input.s, barrier_config,
                                      TrackJoinVersion::k4Phase))
        .checksum;
  };
  auto pipelined = [&](const Workload& input) {
    return ValueOrDie(TryRunPipelinedTrackJoin(input.r, input.s,
                                               pipelined_config,
                                               TrackJoinVersion::k4Phase))
        .checksum;
  };
  const Workload wx = InstantiateReal(WorkloadX(1), 8, 2000, true, args.seed);
  const Workload wx2 = InstantiateReal(WorkloadX(1), 8, 1000, true, args.seed);
  double barrier_s = 1e300, pipelined_s = 1e300, pipelined_2x_s = 1e300;
  double wall_ratios[bench::kWallRatioPairs];
  double scaling_ratios[bench::kWallRatioPairs];
  JoinChecksum barrier_sum, pipelined_sum;
  for (int rep = 0; rep < bench::kWallRatioPairs; ++rep) {
    const double b = bench::Seconds([&] { barrier_sum = barrier(wx); });
    const double p = bench::Seconds([&] { pipelined_sum = pipelined(wx); });
    const double p2 = bench::Seconds([&] { pipelined(wx2); });
    wall_ratios[rep] = p / b;
    scaling_ratios[rep] = p2 / p;
    barrier_s = std::min(barrier_s, b);
    pipelined_s = std::min(pipelined_s, p);
    pipelined_2x_s = std::min(pipelined_2x_s, p2);
  }
  const double wall_ratio = bench::Median(wall_ratios);
  const double scaling_ratio = bench::Median(scaling_ratios);
  TJ_CHECK(barrier_sum == pipelined_sum) << "pipelined 4TJ result differs";

  // The same ratio on a small Zipf 0.8 input (20,000 keys and rows per
  // table on 8 nodes), where a hot key's rows reach a joiner over many
  // chunks of both kinds: the median of kWallRatioPairs alternating pairs.
  ZipfWorkloadSpec zipf_spec;
  zipf_spec.seed = args.seed;
  zipf_spec.key_domain = 20000;
  zipf_spec.r_rows = 20000;
  zipf_spec.s_rows = 20000;
  zipf_spec.r_theta = 0.8;
  zipf_spec.s_theta = 0.8;
  const Workload wz = ValueOrDie(TryGenerateZipfWorkload(zipf_spec));
  for (int rep = 0; rep < bench::kWallRatioPairs; ++rep) {
    const double b = bench::Seconds([&] { barrier_sum = barrier(wz); });
    const double p = bench::Seconds([&] { pipelined_sum = pipelined(wz); });
    wall_ratios[rep] = p / b;
  }
  const double zipf_wall_ratio = bench::Median(wall_ratios);
  TJ_CHECK(barrier_sum == pipelined_sum) << "pipelined Zipf 4TJ result differs";

  // Barrier 4TJ on the same 8,000 keys per table spread over 16 and over
  // 256 nodes, serial, kWallRatioPairs reps alternating: what cluster width
  // alone costs a barrier run, the median of each rep's 256 ÷ 16 ratio
  // (each wall reported is the best of its reps).
  auto spread_over = [&](uint32_t nodes) {
    WorkloadSpec spec;
    spec.num_nodes = nodes;
    spec.matched_keys = 8000;
    spec.seed = args.seed;
    return GenerateWorkload(spec);
  };
  const Workload spread[2] = {spread_over(16), spread_over(256)};
  double spread_s[2] = {1e300, 1e300};
  double spread_ratios[bench::kWallRatioPairs];
  JoinChecksum spread_sum[2];
  for (int rep = 0; rep < bench::kWallRatioPairs; ++rep) {
    double rep_s[2];
    for (int i = 0; i < 2; ++i) {
      rep_s[i] = bench::Seconds([&] {
        spread_sum[i] = ValueOrDie(TryRunTrackJoin(spread[i].r, spread[i].s,
                                                   JoinConfig(),
                                                   TrackJoinVersion::k4Phase))
                            .checksum;
      });
      spread_s[i] = std::min(spread_s[i], rep_s[i]);
    }
    spread_ratios[rep] = rep_s[1] / rep_s[0];
  }
  TJ_CHECK(spread_sum[0] == spread_sum[1]) << "cluster width changed 4TJ";

  // Pipelined 4TJ under DRR on the same 8,000 keys per table spread over 8
  // and over 64 nodes, serial, kWallRatioPairs reps alternating: what
  // cluster width alone costs the event fabric and its driver, the median
  // of each rep's 64 ÷ 8 ratio (each wall reported is the best of its
  // reps).
  JoinConfig wide_config;
  wide_config.pipeline.enabled = true;
  wide_config.pipeline.drr = true;
  const Workload wide[2] = {spread_over(8), spread_over(64)};
  double wide_s[2] = {1e300, 1e300};
  double wide_ratios[bench::kWallRatioPairs];
  JoinChecksum wide_sum[2];
  for (int rep = 0; rep < bench::kWallRatioPairs; ++rep) {
    double rep_s[2];
    for (int i = 0; i < 2; ++i) {
      rep_s[i] = bench::Seconds([&] {
        wide_sum[i] = ValueOrDie(TryRunPipelinedTrackJoin(
                                     wide[i].r, wide[i].s, wide_config,
                                     TrackJoinVersion::k4Phase))
                          .checksum;
      });
      wide_s[i] = std::min(wide_s[i], rep_s[i]);
    }
    wide_ratios[rep] = rep_s[1] / rep_s[0];
  }
  TJ_CHECK(wide_sum[0] == wide_sum[1]) << "cluster width changed pipelined 4TJ";

  // The join checksum's cost on workload Y's large key groups: a merge
  // join of Y/200's sorted blocks (one node) with the checksum sink over
  // the same join with a no-op per-pair sink. Best of kReps each, reps
  // alternating.
  Workload wy = InstantiateReal(WorkloadY(), 1, 200, true, args.seed);
  TupleBlock& yr = wy.r.node(0);
  TupleBlock& ys = wy.s.node(0);
  SortBlockByKey(&yr, p);
  SortBlockByKey(&ys, p);
  const JoinSink no_op = [](uint64_t, const uint8_t*, const uint8_t*) {};
  double y_join_s = 1e300, y_checksum_join_s = 1e300;
  uint64_t y_rows = 0;
  JoinChecksum y_sum;
  for (int rep = 0; rep < bench::kReps; ++rep) {
    y_join_s = std::min(y_join_s, bench::Seconds([&] {
                          y_rows = MergeJoinSorted(yr, ys, no_op);
                        }));
    y_sum = JoinChecksum();
    y_checksum_join_s = std::min(y_checksum_join_s, bench::Seconds([&] {
      MergeJoinSorted(
          yr, ys, ChecksumSink(&y_sum, yr.payload_width(), ys.payload_width()));
    }));
  }
  TJ_CHECK_EQ(y_sum.count(), y_rows) << "checksum join row count differs";

  // One node's received tuples as the barrier joins read them: 8
  // key-ascending runs (one per source) of rows / 2 rows in all, 4-byte
  // keys and 8-byte payloads, merged in place from the wire bytes and
  // drained into a block versus deserialized and radix-sorted, both
  // serial, pairs alternating. Falling back to sorting drives the ratio
  // to 1.
  constexpr uint32_t kKeyBytes = 4;
  std::vector<Message> received;
  for (uint32_t src = 0; src < 8; ++src) {
    TupleBlock run(8);
    for (uint64_t i = 0; i < rows / 2 / 8; ++i) {
      const uint64_t key = rng.Next() & FieldMask(kKeyBytes);
      std::memcpy(payload, &key, 8);
      run.Append(key, payload);
    }
    SortBlockByKey(&run);
    received.push_back(Message{src, MessageType::kDataR, {}});
    run.SerializeRows(0, run.size(), kKeyBytes, &received.back().data);
  }
  double merge_received_s = 1e300, sort_received_s = 1e300;
  double merge_ratios[bench::kMergeRatioPairs];
  for (int rep = 0; rep < bench::kMergeRatioPairs; ++rep) {
    TupleBlock sorted(8), merged(8);
    const double sort_s = bench::Seconds([&] {
      for (const Message& msg : received) {
        ByteReader reader(msg.data);
        TJ_CHECK(sorted.TryDeserializeRows(&reader, kKeyBytes).ok());
      }
      SortBlockByKey(&sorted);
    });
    const double merge_s = bench::Seconds([&] {
      TJ_CHECK(TryMergeReceivedRows(received, kKeyBytes, &merged).ok());
    });
    TJ_CHECK(merged.keys() == sorted.keys()) << "merge differs from sort";
    merge_ratios[rep] = merge_s / sort_s;
    merge_received_s = std::min(merge_received_s, merge_s);
    sort_received_s = std::min(sort_received_s, sort_s);
  }
  const double merge_ratio = bench::Median(merge_ratios);

  double n = static_cast<double>(rows);
  std::printf("{\n");
  std::printf("  \"rows\": %" PRIu64 ",\n", rows);
  std::printf("  \"threads\": %u,\n", args.threads);
  std::printf("  \"partition_parts\": %u,\n", bench::kParts);
  bench::PrintKernel("partition", n, partition);
  bench::PrintKernel("key_partition", n, key_partition);
  bench::PrintKernel("sort_pairs", n, sort_pairs);
  bench::PrintKernel("sort_block", n, sort_block);
  std::printf("  \"tj4_barrier_wall_s\": %.6f,\n", barrier_s);
  std::printf("  \"tj4_pipelined_wall_s\": %.6f,\n", pipelined_s);
  std::printf("  \"tj4_pipelined_over_barrier_wall\": %.4f,\n",
              wall_ratio);
  std::printf("  \"tj4_pipelined_over_barrier_wall_zipf\": %.4f,\n",
              zipf_wall_ratio);
  std::printf("  \"tj4_pipelined_2x_wall_s\": %.6f,\n", pipelined_2x_s);
  std::printf("  \"tj4_pipelined_scaling\": %.4f,\n", scaling_ratio);
  std::printf("  \"y_join_output_rows\": %" PRIu64 ",\n", y_rows);
  std::printf("  \"y_join_wall_s\": %.6f,\n", y_join_s);
  std::printf("  \"y_checksum_join_wall_s\": %.6f,\n", y_checksum_join_s);
  std::printf("  \"y_checksum_join_over_join\": %.4f,\n",
              y_checksum_join_s / y_join_s);
  std::printf("  \"barrier_16_nodes_wall_s\": %.6f,\n", spread_s[0]);
  std::printf("  \"barrier_256_nodes_wall_s\": %.6f,\n", spread_s[1]);
  std::printf("  \"barrier_node_scaling\": %.4f,\n",
              bench::Median(spread_ratios));
  std::printf("  \"pipelined_8_nodes_wall_s\": %.6f,\n", wide_s[0]);
  std::printf("  \"pipelined_64_nodes_wall_s\": %.6f,\n", wide_s[1]);
  std::printf("  \"pipelined_node_scaling\": %.4f,\n",
              bench::Median(wide_ratios));
  std::printf("  \"merge_received_wall_s\": %.6f,\n", merge_received_s);
  std::printf("  \"sort_received_wall_s\": %.6f,\n", sort_received_s);
  std::printf("  \"merge_received_over_sort\": %.4f,\n", merge_ratio);
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
