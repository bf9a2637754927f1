// Compression tuning: the Section 2.4 traffic-compression layers applied
// to a real-workload-shaped join, end to end.
//
// Shows (1) how encoding schemes change every algorithm's bottom line via
// the width model, and (2) what the wire-format toggles (delta-coded
// tracking, node-grouped location messages) save on top of track join.
#include <cstdio>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/track_join.h"
#include "costmodel/reprice.h"
#include "workload/real.h"

int main() {
  // The workload X Q1 join, scaled down 20000x, on 8 nodes.
  tj::RealJoinSpec spec = tj::WorkloadX(1);
  tj::Workload w = tj::InstantiateReal(spec, 8, 20000, /*original_order=*/true);

  tj::JoinConfig config;
  config.key_bytes = spec.impl_key_bytes;
  config.count_bytes = spec.impl_count_bytes;

  std::printf("workload X Q1 (scaled 20000x): %llu x %llu tuples, 8 nodes\n\n",
              static_cast<unsigned long long>(w.r.TotalRows()),
              static_cast<unsigned long long>(w.s.TotalRows()));

  // 1. Encoding schemes re-price the same transfer schedule.
  tj::JoinResult hj = tj::ValueOrDie(tj::TryRunHashJoin(w.r, w.s, config));
  tj::JoinResult tj4 = tj::ValueOrDie(tj::TryRunTrackJoin(
      w.r, w.s, config, tj::TrackJoinVersion::k4Phase));
  std::printf("encoding scheme sweep (MiB, same schedules re-priced):\n");
  std::printf("  %-14s %10s %10s\n", "scheme", "hash join", "track join");
  for (auto scheme :
       {tj::EncodingScheme::kFixedByte, tj::EncodingScheme::kVariableByte,
        tj::EncodingScheme::kDictionary}) {
    tj::PricingSpec pricing;
    pricing.physical = config;
    pricing.physical_with_counts = true;
    pricing.physical_payload_r = spec.impl_r_payload;
    pricing.physical_payload_s = spec.impl_s_payload;
    pricing.key_bits_x100 = spec.r_schema.KeyBitsX100(scheme);
    pricing.count_bits_x100 = 800ULL * config.count_bytes;
    pricing.payload_r_bits_x100 = spec.r_schema.PayloadBitsX100(scheme);
    pricing.payload_s_bits_x100 = spec.s_schema.PayloadBitsX100(scheme);
    std::printf("  %-14s %10.2f %10.2f\n", tj::EncodingSchemeName(scheme),
                tj::RepricedTotalNetworkBytes(hj.traffic, pricing) / (1 << 20),
                tj::RepricedTotalNetworkBytes(tj4.traffic, pricing) / (1 << 20));
  }

  // 2. Wire-format toggles on the tracking/location phases.
  std::printf("\nwire-format toggles on 4-phase track join (MiB):\n");
  std::printf("  %-28s %10s %10s %10s\n", "configuration", "tracking",
              "locations", "total");
  struct Toggle {
    const char* name;
    bool delta;
    bool group;
  };
  for (const Toggle& t :
       {Toggle{"plain", false, false}, Toggle{"delta tracking", true, false},
        Toggle{"grouped locations", false, true},
        Toggle{"both", true, true}}) {
    tj::JoinConfig tuned = config;
    tuned.delta_tracking = t.delta;
    tuned.group_locations = t.group;
    tj::JoinResult result = tj::ValueOrDie(tj::TryRunTrackJoin(
        w.r, w.s, tuned, tj::TrackJoinVersion::k4Phase));
    if (result.checksum.digest() != hj.checksum.digest()) {
      std::fprintf(stderr, "join results disagree!\n");
      return 1;
    }
    std::printf(
        "  %-28s %10.2f %10.2f %10.2f\n", t.name,
        result.traffic.NetworkBytes(tj::TrafficClass::kKeysAndCounts) /
            double(1 << 20),
        result.traffic.NetworkBytes(tj::TrafficClass::kKeysAndNodes) /
            double(1 << 20),
        result.traffic.TotalNetworkBytes() / double(1 << 20));
  }
  return 0;
}
