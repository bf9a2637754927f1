// Shared driver for the workload X / Y benches (Figures 7-11, Tables 2-4).
#ifndef TJ_BENCH_REAL_BENCH_H_
#define TJ_BENCH_REAL_BENCH_H_

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/real.h"

namespace tj {
namespace bench {

/// The physical widths of `spec` on a `nodes`-node cluster.
inline JoinConfig RealConfig(const RealJoinSpec& spec, uint32_t nodes) {
  JoinConfig config;
  config.key_bytes = spec.impl_key_bytes;
  config.count_bytes = spec.impl_count_bytes;
  config.node_bytes = NodeIdBytes(nodes);
  return config;
}

/// Pricing of a run's traffic under one encoding scheme, derived from the
/// reconstruction's schemas. 2-phase runs carry no counts in tracking.
inline PricingSpec PricingFor(const RealJoinSpec& spec,
                              const JoinConfig& config, EncodingScheme scheme,
                              bool with_counts) {
  PricingSpec pricing;
  pricing.physical = config;
  pricing.physical_with_counts = with_counts;
  pricing.physical_payload_r = spec.impl_r_payload;
  pricing.physical_payload_s = spec.impl_s_payload;
  pricing.key_bits_x100 = spec.r_schema.KeyBitsX100(scheme);
  pricing.count_bits_x100 = 800ULL * config.count_bytes;
  pricing.node_bits_x100 = 800ULL * config.node_bytes;
  pricing.payload_r_bits_x100 = spec.r_schema.PayloadBitsX100(scheme);
  pricing.payload_s_bits_x100 = spec.s_schema.PayloadBitsX100(scheme);
  return pricing;
}

inline bool TracksCounts(JoinAlgorithm algorithm) {
  return algorithm == JoinAlgorithm::kTrack3 ||
         algorithm == JoinAlgorithm::kTrack4;
}

/// Runs all algorithms on a real-workload instantiation and prints one
/// traffic table per encoding scheme (the encodings only re-price the same
/// transfer schedules; the schedules themselves are encoding-invariant).
inline void RunRealEncodings(const RealJoinSpec& spec, bool original_order,
                             const std::vector<EncodingScheme>& schemes,
                             uint64_t scale, uint32_t nodes, uint64_t seed) {
  JoinConfig config = RealConfig(spec, nodes);
  Workload w = InstantiateReal(spec, nodes, scale, original_order, seed);
  std::printf("%s, %s ordering: %" PRIu64 " x %" PRIu64
              " tuples (projected x%" PRIu64 "), %u nodes\n\n",
              spec.name.c_str(), original_order ? "original" : "shuffled",
              w.r.TotalRows(), w.s.TotalRows(), scale, nodes);
  std::vector<JoinResult> results = RunAll(w, config);
  for (EncodingScheme scheme : schemes) {
    std::printf("-- %s encoding --\n", EncodingSchemeName(scheme));
    std::printf("  %-6s %14s %14s %14s %14s %14s\n", "algo", "keys&counts",
                "keys&nodes", "R tuples", "S tuples", "total GiB");
    for (size_t i = 0; i < AllAlgorithms().size(); ++i) {
      JoinAlgorithm algorithm = AllAlgorithms()[i];
      PricingSpec pricing =
          PricingFor(spec, config, scheme, TracksCounts(algorithm));
      const TrafficMatrix& t = results[i].traffic;
      double kc = RepricedNetworkBytes(t, TrafficClass::kKeysAndCounts, pricing);
      double kn = RepricedNetworkBytes(t, TrafficClass::kKeysAndNodes, pricing);
      double rt = RepricedNetworkBytes(t, TrafficClass::kRTuples, pricing);
      double st = RepricedNetworkBytes(t, TrafficClass::kSTuples, pricing);
      double p = static_cast<double>(scale);
      std::printf("  %-6s %14.3f %14.3f %14.3f %14.3f %14.3f\n",
                  JoinAlgorithmName(algorithm), Gib(kc * p), Gib(kn * p),
                  Gib(rt * p), Gib(st * p), Gib((kc + kn + rt + st) * p));
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace tj

#endif  // TJ_BENCH_REAL_BENCH_H_
