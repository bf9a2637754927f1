#include "core/recovery.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "core/schedule.h"
#include "obs/trace.h"

namespace tj {
namespace {

/// Re-derives the per-attempt fault seed. Attempt 0 keeps the caller's
/// seed bit-exactly so a failure-free managed run is byte-identical to an
/// unmanaged one; later attempts decorrelate the injector's streams so a
/// transient loss pattern does not repeat verbatim.
uint64_t AttemptSeed(uint64_t seed, uint32_t attempt) {
  if (attempt == 0) return seed;
  return seed ^ (0x9e3779b97f4a7c15ULL * attempt);
}

/// Expresses the caller's fault policy (original node ids) in the current
/// degraded id space. Faults pinned to a node that no longer exists are
/// disabled — the dead stay dead, they do not crash twice.
FaultPolicy RemapPolicy(const FaultPolicy& policy, const SurvivorPlan& plan) {
  FaultPolicy out = policy;
  auto remap = [&plan](uint32_t node) {
    if (node == FaultPolicy::kNoNode ||
        node >= plan.original_to_live.size()) {
      return FaultPolicy::kNoNode;
    }
    return plan.original_to_live[node];  // kNoNode == ReplicaMap::kNoNode
  };
  out.crash_node = remap(policy.crash_node);
  out.slow_node = remap(policy.slow_node);
  if (out.slow_node == FaultPolicy::kNoNode) out.slowdown_seconds = 0;
  return out;
}

SurvivorPlan IdentityPlan(uint32_t num_nodes) {
  SurvivorPlan plan;
  plan.live_to_original.resize(num_nodes);
  plan.original_to_live.resize(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    plan.live_to_original[i] = i;
    plan.original_to_live[i] = i;
  }
  return plan;
}

double PhaseSecondsTotal(
    const std::vector<std::pair<std::string, double>>& phases) {
  double total = 0;
  for (const auto& [name, secs] : phases) total += secs;
  return total;
}

}  // namespace

bool IsFaultInduced(StatusCode code) {
  return code == StatusCode::kDataLoss || code == StatusCode::kCorruption ||
         code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

Result<JoinResult> RecoveryManager::Run(const ReplicatedTable& r,
                                        const ReplicatedTable& s,
                                        const JoinConfig& config,
                                        const JoinRunner& runner) {
  const uint32_t n = r.primary().num_nodes();
  TJ_CHECK_EQ(s.primary().num_nodes(), n)
      << "join inputs disagree on the cluster size";
  const uint32_t max_attempts = std::max(1u, options_.max_attempts);
  report_ = RecoveryReport();

  SurvivorPlan plan = IdentityPlan(n);
  // Degraded views, materialized on failover; attempt 0 joins the
  // primaries in place.
  std::optional<PartitionedTable> r_view, s_view;
  std::vector<uint64_t> rehomed_keys;
  std::vector<uint32_t> dead;  // Cumulative, original ids.
  // Failed attempts' wire bytes, folded in original node ids.
  TrafficMatrix recovery_traffic(n);
  bool any_failed = false;
  double next_backoff = options_.backoff_initial_seconds;
  Status last_error;

  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    report_.attempts = attempt + 1;
    JoinConfig cfg = config;
    RunDiagnostics diag;
    cfg.diagnostics = &diag;
    FaultPolicy remapped;
    if (config.fault_policy != nullptr) {
      remapped = RemapPolicy(*config.fault_policy, plan);
      cfg.fault_policy = &remapped;
      cfg.fault_seed = AttemptSeed(config.fault_seed, attempt);
    }
    if (cfg.schedule_audit != nullptr) {
      // Tag re-homed keys as failover decisions; an empty set clears the
      // marking (attempt 0, or a transient retry without failover).
      cfg.schedule_audit->SetFailoverKeys(rehomed_keys);
    }

    Result<JoinResult> run = [&]() {
      TraceSpan span("recovery",
                     "attempt " + std::to_string(attempt + 1) + "/" +
                         std::to_string(max_attempts) + " on " +
                         std::to_string(plan.num_live()) + " node(s)");
      const PartitionedTable& r_in = r_view ? *r_view : r.primary();
      const PartitionedTable& s_in = s_view ? *s_view : s.primary();
      return runner(r_in, s_in, cfg);
    }();

    if (run.ok()) {
      JoinResult result = std::move(run).value();
      if (report_.failovers > 0) {
        // Express the degraded run's ledgers in original node ids so
        // callers keep one coordinate system across recovered and
        // failure-free runs.
        result.traffic =
            result.traffic.MappedTo(n, plan.live_to_original);
      }
      if (any_failed) result.traffic.Merge(recovery_traffic);
      result.profile.recovery_bytes = result.traffic.TotalRecoveryBytes();
      report_.recovery_bytes = result.profile.recovery_bytes;
      report_.recovery_seconds =
          report_.wasted_seconds + report_.backoff_seconds;
      return result;
    }

    // The attempt failed. Bill what it burned, then decide: propagate,
    // retry, or fail over.
    last_error = run.status();
    any_failed = true;
    report_.wasted_seconds += PhaseSecondsTotal(diag.phase_seconds);
    if (diag.traffic.num_nodes() == plan.num_live()) {
      recovery_traffic.AccumulateRecovery(diag.traffic,
                                          plan.live_to_original);
    }
    if (!IsFaultInduced(last_error.code())) {
      // Usage or programming error: retrying cannot help and must not
      // mask it.
      return last_error;
    }
    if (attempt + 1 >= max_attempts) break;

    const FailureReport& failure = diag.failure;
    if (failure.transient()) {
      // Pure message-level attrition: modeled exponential backoff, then
      // replay on the same topology with a re-derived seed.
      TraceSpan span("recovery",
                     "backoff " + std::to_string(next_backoff) +
                         "s before retry");
      report_.backoff_seconds += next_backoff;
      next_backoff *= options_.backoff_multiplier;
      ++report_.retries;
      continue;
    }

    // A node is confirmed (crash) or suspected (deadline) dead: extend the
    // cumulative dead set — failure reports name degraded ids, so map them
    // back — and re-plan against the surviving replicas.
    TraceSpan span("recovery", "failover: re-plan around dead node(s)");
    for (uint32_t degraded : failure.unusable_nodes()) {
      TJ_CHECK_LT(degraded, plan.live_to_original.size());
      dead.push_back(plan.live_to_original[degraded]);
    }
    std::sort(dead.begin(), dead.end());
    dead.erase(std::unique(dead.begin(), dead.end()), dead.end());

    Result<SurvivorPlan> next_plan = PlanSurvivors(n, dead);
    if (!next_plan.ok()) return next_plan.status();
    plan = std::move(next_plan).value();

    rehomed_keys.clear();
    Result<PartitionedTable> r_next = r.FailoverView(plan, &rehomed_keys);
    if (!r_next.ok()) return r_next.status();
    Result<PartitionedTable> s_next = s.FailoverView(plan, &rehomed_keys);
    if (!s_next.ok()) return s_next.status();
    r_view = std::move(r_next).value();
    s_view = std::move(s_next).value();
    ++report_.failovers;
    report_.dead_nodes = dead;
    // A fresh topology gets a fresh backoff ladder.
    next_backoff = options_.backoff_initial_seconds;
  }

  report_.recovery_seconds = report_.wasted_seconds + report_.backoff_seconds;
  report_.recovery_bytes = recovery_traffic.TotalRecoveryBytes();
  return Status::Unavailable(
      "recovery budget exhausted after " + std::to_string(max_attempts) +
      " attempt(s); last error: " + last_error.ToString());
}

Result<JoinResult> RunWithRecovery(const ReplicatedTable& r,
                                   const ReplicatedTable& s,
                                   const JoinConfig& config,
                                   const RecoveryOptions& options,
                                   const JoinRunner& runner,
                                   RecoveryReport* report) {
  RecoveryManager manager(options);
  Result<JoinResult> result = manager.Run(r, s, config, runner);
  if (report != nullptr) *report = manager.report();
  return result;
}

}  // namespace tj
