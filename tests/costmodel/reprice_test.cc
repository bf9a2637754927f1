#include "costmodel/reprice.h"

#include <gtest/gtest.h>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/track_join.h"
#include "workload/generator.h"

namespace tj {
namespace {

TEST(RepriceTest, IdentityPricingReproducesPhysicalBytes) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 300;
  spec.r_payload = 10;
  spec.s_payload = 20;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;
  JoinResult result = ValueOrDie(TryRunTrackJoin(w.r, w.s, config,
                                                 TrackJoinVersion::k4Phase));

  PricingSpec pricing;
  pricing.physical = config;
  pricing.physical_with_counts = true;
  pricing.physical_payload_r = 10;
  pricing.physical_payload_s = 20;
  pricing.key_bits_x100 = 3200;
  pricing.count_bits_x100 = 800;
  pricing.node_bits_x100 = 800;
  pricing.payload_r_bits_x100 = 8000;
  pricing.payload_s_bits_x100 = 16000;

  EXPECT_DOUBLE_EQ(RepricedTotalNetworkBytes(result.traffic, pricing),
                   static_cast<double>(result.traffic.TotalNetworkBytes()));
  for (auto cls : {TrafficClass::kKeysAndCounts, TrafficClass::kKeysAndNodes,
                   TrafficClass::kRTuples, TrafficClass::kSTuples}) {
    EXPECT_DOUBLE_EQ(RepricedNetworkBytes(result.traffic, cls, pricing),
                     static_cast<double>(result.traffic.NetworkBytes(cls)));
  }
}

TEST(RepriceTest, HalvingWidthsHalvesTupleTraffic) {
  WorkloadSpec spec;
  spec.num_nodes = 4;
  spec.matched_keys = 200;
  spec.r_payload = 8;
  spec.s_payload = 8;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, config));

  PricingSpec pricing;
  pricing.physical = config;
  pricing.physical_payload_r = 8;
  pricing.physical_payload_s = 8;
  pricing.key_bits_x100 = 1600;      // Half of 32.
  pricing.payload_r_bits_x100 = 3200;  // Half of 64.
  pricing.payload_s_bits_x100 = 3200;

  double repriced = RepricedTotalNetworkBytes(result.traffic, pricing);
  EXPECT_DOUBLE_EQ(repriced,
                   static_cast<double>(result.traffic.TotalNetworkBytes()) / 2);
}

TEST(RepriceTest, FractionalBitsSupported) {
  // 30-bit dictionary keys on a 4-byte physical run: ratio 30/32.
  WorkloadSpec spec;
  spec.matched_keys = 100;
  spec.r_payload = 0;
  spec.s_payload = 0;
  Workload w = GenerateWorkload(spec);
  JoinConfig config;
  config.key_bytes = 4;
  JoinResult result = ValueOrDie(TryRunHashJoin(w.r, w.s, config));

  PricingSpec pricing;
  pricing.physical = config;
  pricing.physical_payload_r = 0;
  pricing.physical_payload_s = 0;
  pricing.key_bits_x100 = 3000;
  pricing.payload_r_bits_x100 = 0;
  pricing.payload_s_bits_x100 = 0;
  double repriced = RepricedTotalNetworkBytes(result.traffic, pricing);
  double physical = static_cast<double>(result.traffic.TotalNetworkBytes());
  EXPECT_NEAR(repriced, physical * 30.0 / 32.0, 1e-6);
}

}  // namespace
}  // namespace tj
