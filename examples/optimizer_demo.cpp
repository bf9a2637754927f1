// Query-optimizer demo: the Section 3.1 cost model picks a join algorithm
// from statistics alone, and the simulator then validates the choice.
//
// Sweeps payload widths and table-size ratios through the break-even
// regions the paper identifies (2*wk vs max payload; tiny tables ->
// broadcast join).
#include <cstdio>

#include "baseline/broadcast_join.h"
#include "baseline/hash_join.h"
#include "common/logging.h"
#include "core/track_join.h"
#include "costmodel/optimizer.h"
#include "workload/generator.h"

namespace {

tj::JoinResult Run(tj::JoinAlgorithm algorithm, const tj::Workload& w,
                   const tj::JoinConfig& config) {
  switch (algorithm) {
    case tj::JoinAlgorithm::kBroadcastR:
      return tj::ValueOrDie(tj::TryRunBroadcastJoin(w.r, w.s, config,
                                                    tj::Direction::kRtoS));
    case tj::JoinAlgorithm::kBroadcastS:
      return tj::ValueOrDie(tj::TryRunBroadcastJoin(w.r, w.s, config,
                                                    tj::Direction::kStoR));
    case tj::JoinAlgorithm::kHash:
      return tj::ValueOrDie(tj::TryRunHashJoin(w.r, w.s, config));
    case tj::JoinAlgorithm::kTrack2R:
      return tj::ValueOrDie(tj::TryRunTrackJoin(w.r, w.s, config,
                                                tj::TrackJoinVersion::k2Phase,
                                                tj::Direction::kRtoS));
    case tj::JoinAlgorithm::kTrack2S:
      return tj::ValueOrDie(tj::TryRunTrackJoin(w.r, w.s, config,
                                                tj::TrackJoinVersion::k2Phase,
                                                tj::Direction::kStoR));
    case tj::JoinAlgorithm::kTrack3:
      return tj::ValueOrDie(tj::TryRunTrackJoin(w.r, w.s, config,
                                                tj::TrackJoinVersion::k3Phase));
    case tj::JoinAlgorithm::kTrack4:
      return tj::ValueOrDie(tj::TryRunTrackJoin(w.r, w.s, config,
                                                tj::TrackJoinVersion::k4Phase));
  }
  std::abort();
}

void Scenario(const char* name, uint64_t matched, uint64_t r_unmatched,
              uint64_t s_unmatched, uint32_t r_payload, uint32_t s_payload) {
  constexpr uint32_t kNodes = 8;
  tj::WorkloadSpec spec;
  spec.num_nodes = kNodes;
  spec.matched_keys = matched;
  spec.r_unmatched = r_unmatched;
  spec.s_unmatched = s_unmatched;
  spec.r_payload = r_payload;
  spec.s_payload = s_payload;
  tj::Workload w = tj::GenerateWorkload(spec);

  tj::JoinConfig config;
  config.key_bytes = 4;

  tj::JoinStats stats;
  stats.num_nodes = kNodes;
  stats.t_r = static_cast<double>(w.r.TotalRows());
  stats.t_s = static_cast<double>(w.s.TotalRows());
  stats.d_r = static_cast<double>(matched + r_unmatched);
  stats.d_s = static_cast<double>(matched + s_unmatched);
  stats.w_k = config.key_bytes;
  stats.w_r = r_payload;
  stats.w_s = s_payload;
  stats.s_r = static_cast<double>(matched) / (matched + r_unmatched);
  stats.s_s = static_cast<double>(matched) / (matched + s_unmatched);

  auto plans = tj::RankAlgorithms(stats);
  std::printf("%s\n", name);
  std::printf("  optimizer ranking: ");
  for (const auto& plan : plans) {
    std::printf("%s(%.1f MiB) ", tj::JoinAlgorithmName(plan.algorithm),
                plan.modeled_bytes / (1 << 20));
  }
  std::printf("\n");

  // Validate: simulate the optimizer's pick and the runner-up.
  tj::JoinResult best = Run(plans[0].algorithm, w, config);
  tj::JoinResult second = Run(plans[1].algorithm, w, config);
  std::printf("  simulated: %s = %.1f MiB, %s = %.1f MiB  -> pick %s\n\n",
              tj::JoinAlgorithmName(plans[0].algorithm),
              best.traffic.TotalNetworkBytes() / double(1 << 20),
              tj::JoinAlgorithmName(plans[1].algorithm),
              second.traffic.TotalNetworkBytes() / double(1 << 20),
              best.traffic.TotalNetworkBytes() <=
                      second.traffic.TotalNetworkBytes()
                  ? "confirmed"
                  : "second-guessed");
}

}  // namespace

int main() {
  std::printf("=== Cost-model-driven algorithm selection (Section 3.1) "
              "===\n\n");
  Scenario("wide payloads, unique keys (track join territory):", 180000,
           20000, 20000, 16, 56);
  Scenario("tiny payloads (hash join territory, 2*wk > max payload):", 180000,
           20000, 20000, 2, 3);
  Scenario("tiny R table (broadcast join territory):", 2000, 0, 198000, 16,
           56);
  Scenario("selective join (track join skips unmatched keys):", 40000, 360000,
           360000, 16, 40);
  return 0;
}
