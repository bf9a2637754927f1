#include "costmodel/class_estimator.h"

#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "core/schedule.h"
#include "core/tracker.h"
#include "exec/key_aggregate.h"

namespace tj {

namespace {

constexpr uint64_t kSampleSalt = 0xc0551edULL;

/// Correlated sampling: a key is in the sample iff its (salted) hash falls
/// under the rate threshold — the same decision everywhere the key occurs.
bool Sampled(uint64_t key, double rate, uint64_t seed) {
  if (rate >= 1.0) return true;
  uint64_t threshold =
      static_cast<uint64_t>(rate * static_cast<double>(~0ULL));
  return HashKey(key, kSampleSalt ^ seed) <= threshold;
}

}  // namespace

ClassEstimate EstimateClasses(const PartitionedTable& r,
                              const PartitionedTable& s,
                              const JoinConfig& config, double sample_rate,
                              uint64_t seed) {
  TJ_CHECK_GT(sample_rate, 0.0);
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  const uint32_t width_r = config.key_bytes + r.payload_width();
  const uint32_t width_s = config.key_bytes + s.payload_width();

  // Build the sampled tracker tables (what the tracking phase would see,
  // restricted to sampled keys).
  std::vector<TrackEntry> r_entries, s_entries;
  for (uint32_t node = 0; node < n; ++node) {
    for (const auto& kc : AggregateKeys(r.node(node))) {
      if (Sampled(kc.key, sample_rate, seed)) {
        r_entries.push_back({kc.key, node, static_cast<uint32_t>(kc.count)});
      }
    }
    for (const auto& kc : AggregateKeys(s.node(node))) {
      if (Sampled(kc.key, sample_rate, seed)) {
        s_entries.push_back({kc.key, node, static_cast<uint32_t>(kc.count)});
      }
    }
  }
  MergeTrackEntries(&r_entries);
  MergeTrackEntries(&s_entries);

  ClassEstimate estimate;
  double rs_weight = 0, sr_weight = 0, hash_weight = 0;
  double sampled_cost = 0;

  PlacementIterator it(r_entries, s_entries, width_r, width_s, /*tracker=*/0,
                       config.MsgBytes());
  while (it.Next()) {
    KeyPlacement p = it.placement();
    p.tracker = HashPartition(it.key(), n);
    KeySchedule sched = PlanOptimal(p);
    sampled_cost += static_cast<double>(sched.plan.cost);
    ++estimate.sampled_keys;

    // Weight classes by the key's matched tuple bytes (the paper's classes
    // partition the tables' tuples, not just the key space).
    double weight = 0;
    for (const auto& ns : p.r) weight += static_cast<double>(ns.bytes);
    for (const auto& ns : p.s) weight += static_cast<double>(ns.bytes);

    // Hash-like: the schedule consolidates everything onto one node (every
    // target location but the destination migrates away).
    const auto& target = sched.dir == Direction::kRtoS ? p.s : p.r;
    bool consolidates =
        target.size() > 1 && sched.plan.migrate.size() + 1 == target.size();
    if (consolidates) {
      hash_weight += weight;
    } else if (sched.dir == Direction::kRtoS) {
      rs_weight += weight;
    } else {
      sr_weight += weight;
    }
  }

  double total = rs_weight + sr_weight + hash_weight;
  if (total > 0) {
    estimate.classes.rs = rs_weight / total;
    estimate.classes.sr = sr_weight / total;
    estimate.classes.hash = hash_weight / total;
  } else {
    estimate.classes = CorrelationClasses{0, 0, 0};
  }
  estimate.schedule_bytes = sampled_cost / sample_rate;
  estimate.matched_keys =
      static_cast<double>(estimate.sampled_keys) / sample_rate;
  return estimate;
}

}  // namespace tj
