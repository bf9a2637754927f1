// Shared helpers for the figure/table benchmark binaries.
//
// Every bench accepts:
//   --scale=<divisor>   divide the paper's cardinalities by this (default
//                       per bench); reported traffic is projected back up.
//   --nodes=<n>         cluster size (default: the paper's setting).
//   --seed=<n>          workload seed.
//   --threads=<n>       thread pool size for the local kernels (partition,
//                       sort, merge); 1 = the sequential path.
// A malformed or zero --scale/--nodes/--threads (or a malformed --seed) is
// a usage error. Node ids travel at NodeIdBytes(nodes) bytes, so clusters
// past 256 nodes run with 2-byte ids.
#ifndef TJ_BENCH_BENCH_UTIL_H_
#define TJ_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/track_join.h"
#include "costmodel/reprice.h"
#include "net/traffic.h"
#include "workload/generator.h"

namespace tj {
namespace bench {

struct Args {
  uint64_t scale = 0;   // 0 = bench default.
  uint32_t nodes = 0;   // 0 = bench default.
  uint64_t seed = 42;
  uint32_t threads = 1;  // 1 = sequential local kernels.
};

/// Parses the value of a numeric bench flag: a decimal integer in
/// [min, max] with nothing after it. Anything else (empty, a sign, a
/// non-numeric value, trailing garbage, out of range) is a usage error that
/// names the flag, exit status 1.
inline uint64_t ParseNumericFlag(const char* flag, const char* value,
                                 uint64_t min, uint64_t max,
                                 const char* expected) {
  errno = 0;
  char* end = nullptr;
  const bool digits = *value >= '0' && *value <= '9';
  const unsigned long long parsed =
      digits ? std::strtoull(value, &end, 10) : 0;
  if (!digits || *end != '\0' || errno == ERANGE || parsed < min ||
      parsed > max) {
    std::fprintf(stderr, "invalid value '%s' for %s (expected %s)\n", value,
                 flag, expected);
    std::exit(1);
  }
  return parsed;
}

inline Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      args.scale = ParseNumericFlag("--scale", arg + 8, 1, UINT64_MAX,
                                    "positive integer");
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      args.nodes = static_cast<uint32_t>(ParseNumericFlag(
          "--nodes", arg + 8, 1, 1u << 16, "integer in [1, 65536]"));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      args.seed = ParseNumericFlag("--seed", arg + 7, 0, UINT64_MAX,
                                   "non-negative integer");
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      args.threads = static_cast<uint32_t>(ParseNumericFlag(
          "--threads", arg + 10, 1, 1024, "integer in [1, 1024]"));
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--scale=<divisor>] [--nodes=<n>] [--seed=<n>] "
          "[--threads=<n>]\n",
          argv[0]);
      std::exit(0);
    }
  }
  return args;
}

/// The pool backing JoinConfig::thread_pool for `--threads`; null keeps
/// the sequential kernels (results are bit-identical either way).
inline std::unique_ptr<ThreadPool> MakePool(const Args& args) {
  if (args.threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(args.threads);
}

/// Runs one of the seven evaluated algorithms.
inline JoinResult RunAlgorithm(JoinAlgorithm algorithm,
                               const PartitionedTable& r,
                               const PartitionedTable& s,
                               const JoinConfig& config) {
  switch (algorithm) {
    case JoinAlgorithm::kBroadcastR:
      return ValueOrDie(TryRunBroadcastJoin(r, s, config, Direction::kRtoS));
    case JoinAlgorithm::kBroadcastS:
      return ValueOrDie(TryRunBroadcastJoin(r, s, config, Direction::kStoR));
    case JoinAlgorithm::kHash:
      return ValueOrDie(TryRunHashJoin(r, s, config));
    case JoinAlgorithm::kTrack2R:
      return ValueOrDie(TryRunTrackJoin(r, s, config, TrackJoinVersion::k2Phase,
                                        Direction::kRtoS));
    case JoinAlgorithm::kTrack2S:
      return ValueOrDie(TryRunTrackJoin(r, s, config, TrackJoinVersion::k2Phase,
                                        Direction::kStoR));
    case JoinAlgorithm::kTrack3:
      return ValueOrDie(
          TryRunTrackJoin(r, s, config, TrackJoinVersion::k3Phase));
    case JoinAlgorithm::kTrack4:
      return ValueOrDie(
          TryRunTrackJoin(r, s, config, TrackJoinVersion::k4Phase));
  }
  std::abort();
}

inline const std::vector<JoinAlgorithm>& AllAlgorithms() {
  static const std::vector<JoinAlgorithm> kAll = {
      JoinAlgorithm::kBroadcastR, JoinAlgorithm::kBroadcastS,
      JoinAlgorithm::kHash,       JoinAlgorithm::kTrack2R,
      JoinAlgorithm::kTrack2S,    JoinAlgorithm::kTrack3,
      JoinAlgorithm::kTrack4};
  return kAll;
}

inline double Gib(double bytes) { return bytes / (1024.0 * 1024.0 * 1024.0); }

/// Prints the stacked-class traffic table of one experiment, projected to
/// paper scale: one row per algorithm, one column per message class.
/// If `pricing` is non-null the traffic is re-priced through it.
inline void PrintTrafficTable(const std::vector<JoinAlgorithm>& algorithms,
                              const std::vector<JoinResult>& results,
                              double projection,
                              const PricingSpec* pricing = nullptr) {
  std::printf("  %-6s %14s %14s %14s %14s %14s\n", "algo", "keys&counts",
              "keys&nodes", "R tuples", "S tuples", "total GiB");
  for (size_t i = 0; i < algorithms.size(); ++i) {
    const TrafficMatrix& t = results[i].traffic;
    double kc, kn, rt, st;
    if (pricing != nullptr) {
      kc = RepricedNetworkBytes(t, TrafficClass::kKeysAndCounts, *pricing);
      kn = RepricedNetworkBytes(t, TrafficClass::kKeysAndNodes, *pricing);
      rt = RepricedNetworkBytes(t, TrafficClass::kRTuples, *pricing);
      st = RepricedNetworkBytes(t, TrafficClass::kSTuples, *pricing);
    } else {
      kc = static_cast<double>(t.NetworkBytes(TrafficClass::kKeysAndCounts));
      kn = static_cast<double>(t.NetworkBytes(TrafficClass::kKeysAndNodes));
      rt = static_cast<double>(t.NetworkBytes(TrafficClass::kRTuples));
      st = static_cast<double>(t.NetworkBytes(TrafficClass::kSTuples));
    }
    std::printf("  %-6s %14.3f %14.3f %14.3f %14.3f %14.3f\n",
                JoinAlgorithmName(algorithms[i]), Gib(kc * projection),
                Gib(kn * projection), Gib(rt * projection),
                Gib(st * projection),
                Gib((kc + kn + rt + st) * projection));
  }
}

/// Runs all seven algorithms on one workload and verifies they agree.
inline std::vector<JoinResult> RunAll(const Workload& w,
                                      const JoinConfig& config) {
  std::vector<JoinResult> results;
  results.reserve(AllAlgorithms().size());
  for (JoinAlgorithm algorithm : AllAlgorithms()) {
    results.push_back(RunAlgorithm(algorithm, w.r, w.s, config));
    if (results.back().checksum.digest() != results.front().checksum.digest() ||
        results.back().output_rows != results.front().output_rows) {
      std::fprintf(stderr, "FATAL: %s disagrees with %s on the join result\n",
                   JoinAlgorithmName(algorithm),
                   JoinAlgorithmName(AllAlgorithms().front()));
      std::exit(1);
    }
  }
  return results;
}

/// Figures 5 and 6: 4*10^7 / scale keys with 5 repeats per side placed per
/// `pattern` under `collocation`, R 30 bytes / S 60 bytes. Prints the
/// pattern's traffic table, projected back up by `scale`.
inline void RunPattern(const std::vector<uint32_t>& pattern, const char* name,
                       Collocation collocation, uint64_t scale, uint32_t nodes,
                       uint64_t seed) {
  WorkloadSpec spec;
  spec.num_nodes = nodes;
  spec.matched_keys = 40000000ULL / scale;
  spec.r_multiplicity = 5;
  spec.s_multiplicity = 5;
  spec.r_pattern = pattern;
  spec.s_pattern = pattern;
  spec.collocation = collocation;
  spec.seed = seed;
  JoinConfig config;
  config.key_bytes = 4;
  config.node_bytes = NodeIdBytes(nodes);
  spec.r_payload = 30 - config.key_bytes;
  spec.s_payload = 60 - config.key_bytes;
  Workload w = GenerateWorkload(spec);

  std::printf("Pattern: %s  (%" PRIu64 " tuples/table, projected x%" PRIu64
              ")\n",
              name, w.r.TotalRows(), scale);
  std::vector<JoinResult> results = RunAll(w, config);
  PrintTrafficTable(AllAlgorithms(), results, static_cast<double>(scale));
  std::printf("\n");
}

}  // namespace bench
}  // namespace tj

#endif  // TJ_BENCH_BENCH_UTIL_H_
