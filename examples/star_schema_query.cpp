// Multi-join query: a small star-schema plan executed join by join.
//
// The paper's motivating queries run 4-6 joins; this example shows how the
// library chains them: each join materializes a partitioned output, which
// is re-keyed on a column embedded in its payload and fed to the next
// join. The optimizer-flavored twist: the fact-dimension joins use
// different algorithms depending on the dimension's size.
//
//   lineitems (fact, 200k rows: key=order_id,
//              payload=[customer_id:4B | product_id:4B | amount:8B])
//     JOIN orders     (50k rows, key=order_id)    -- 4 lineitems/order
//     JOIN customers  (10k rows, key=customer_id) -- selective broadcast
//     JOIN products   (500 rows, key=product_id)  -- tiny: broadcast join
#include <cstdio>

#include "baseline/broadcast_join.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/track_join.h"
#include "ops/aggregate.h"
#include "workload/generator.h"

namespace {

constexpr uint32_t kNodes = 4;

/// A dimension table: keys [1, rows] once each, random node placement.
tj::PartitionedTable Dimension(const char* name, uint64_t rows,
                               uint32_t payload_width, uint64_t seed) {
  tj::PartitionedTable table(name, kNodes, payload_width);
  tj::Rng rng(seed);
  std::vector<uint8_t> payload(payload_width);
  for (uint64_t key = 1; key <= rows; ++key) {
    tj::SynthesizePayload(seed, key, 0, payload_width, payload.data());
    table.node(rng.Below(kNodes)).Append(key, payload.data());
  }
  return table;
}

}  // namespace

int main() {
  constexpr uint64_t kOrders = 50000;
  constexpr uint64_t kCustomers = 10000;
  constexpr uint64_t kProducts = 500;
  constexpr uint32_t kLineitemsPerOrder = 4;

  // Fact table: payload embeds the two foreign keys at offsets 0 and 4.
  tj::PartitionedTable lineitems("lineitems", kNodes, 16);
  {
    tj::Rng rng(1);
    uint8_t payload[16];
    for (uint64_t order = 1; order <= kOrders; ++order) {
      for (uint32_t li = 0; li < kLineitemsPerOrder; ++li) {
        uint64_t customer = 1 + rng.Below(kCustomers);
        uint64_t product = 1 + rng.Below(kProducts);
        uint64_t amount = rng.Below(100000);
        for (int b = 0; b < 4; ++b) payload[b] = customer >> (8 * b);
        for (int b = 0; b < 4; ++b) payload[4 + b] = product >> (8 * b);
        for (int b = 0; b < 8; ++b) payload[8 + b] = amount >> (8 * b);
        lineitems.node(rng.Below(kNodes)).Append(order, payload);
      }
    }
  }
  tj::PartitionedTable orders = Dimension("orders", kOrders, 12, 2);
  tj::PartitionedTable customers = Dimension("customers", kCustomers, 24, 3);
  tj::PartitionedTable products = Dimension("products", kProducts, 8, 4);

  tj::JoinConfig config;
  config.key_bytes = 4;
  config.materialize = true;

  uint64_t total_network = 0;
  auto report = [&](const char* step, const tj::JoinResult& result) {
    total_network += result.traffic.TotalNetworkBytes();
    std::printf("%-28s %10llu rows   %10s network\n", step,
                static_cast<unsigned long long>(result.output_rows),
                tj::FormatBytes(result.traffic.TotalNetworkBytes()).c_str());
  };

  // Join 1: fact x orders on order_id — 4-phase track join.
  tj::JoinResult j1 = tj::ValueOrDie(tj::TryRunTrackJoin(
      lineitems, orders, config, tj::TrackJoinVersion::k4Phase));
  report("lineitems JOIN orders", j1);

  // Join 2: re-key on customer_id (offset 0 of the lineitem payload, which
  // is now the leading payload segment of the join output).
  tj::PartitionedTable by_customer =
      tj::RekeyByPayloadField(*j1.output, /*offset=*/0, /*bytes=*/4, "j1");
  tj::JoinResult j2 = tj::ValueOrDie(tj::TryRunTrackJoin(
      by_customer, customers, config, tj::TrackJoinVersion::k4Phase));
  report("... JOIN customers", j2);

  // Join 3: products is tiny — broadcast join wins (paper Section 3.1).
  tj::PartitionedTable by_product =
      tj::RekeyByPayloadField(*j2.output, /*offset=*/4, /*bytes=*/4, "j2");
  tj::JoinResult j3 = tj::ValueOrDie(tj::TryRunBroadcastJoin(
      by_product, products, config, tj::Direction::kStoR));
  report("... JOIN products (BJ-S)", j3);

  uint64_t expected = kOrders * kLineitemsPerOrder;
  if (j3.output_rows != expected) {
    std::fprintf(stderr, "expected %llu rows, got %llu\n",
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(j3.output_rows));
    return 1;
  }

  // Final aggregation, like the paper's queries ("4-6 joins followed by
  // aggregation"): SUM(amount) GROUP BY product_id. The join output's
  // payload still leads with the lineitem payload, so product_id sits at
  // offset 4 and amount at offset 8.
  tj::AggregateConfig agg;
  agg.group_by = tj::FieldRef::Payload(4, 4);
  agg.value = tj::FieldRef::Payload(8, 8);
  tj::AggregateResult totals = tj::ValueOrDie(tj::TryRunDistributedAggregate(
      *j3.output, agg));
  total_network += totals.traffic.TotalNetworkBytes();
  std::printf("%-28s %10llu groups %10s network (pre-aggregated)\n",
              "SUM(amount) BY product",
              static_cast<unsigned long long>(totals.groups),
              tj::FormatBytes(totals.traffic.TotalNetworkBytes()).c_str());
  if (totals.groups != kProducts) {
    std::fprintf(stderr, "expected %llu groups\n",
                 static_cast<unsigned long long>(kProducts));
    return 1;
  }

  std::printf("\nplan complete: %llu result rows -> %llu aggregates, "
              "%s total network traffic\n",
              static_cast<unsigned long long>(j3.output_rows),
              static_cast<unsigned long long>(totals.groups),
              tj::FormatBytes(total_network).c_str());
  return 0;
}
