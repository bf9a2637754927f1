// Per-key transfer scheduling — the core contribution of the paper.
//
// For each distinct join key, given the per-node byte totals of matching R
// and S tuples, these functions compute:
//   * the cost of a plain selective broadcast in either direction
//     (2-/3-phase track join, paper "Algorithm track join: broadcast R to S");
//   * the optimal migrate-then-broadcast plan in either direction
//     (4-phase track join, paper "Algorithm track join: migrate S &
//     broadcast R", Theorems 1 and 2);
//   * the overall optimal schedule: the cheaper direction's plan, which by
//     Theorem 2 achieves the minimum network traffic possible for the
//     single-key cartesian-product join.
//
// Costs include the location messages of size M the tracker must send
// (free when the recipient is the tracker itself) and the migration
// instructions of 4-phase track join.
#ifndef TJ_CORE_SCHEDULE_H_
#define TJ_CORE_SCHEDULE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "core/join_types.h"
#include "encoding/node_group.h"

namespace tj {

struct TrackEntry;  // core/tracker.h

/// Per-node byte total of one table's matching tuples for one key.
/// Only nodes with bytes > 0 appear in placements.
struct NodeSize {
  uint32_t node;
  uint64_t bytes;

  bool operator==(const NodeSize&) const = default;
};

/// Everything the tracker knows about one distinct key.
struct KeyPlacement {
  std::vector<NodeSize> r;  ///< Nodes holding matching R tuples (bytes > 0).
  std::vector<NodeSize> s;  ///< Nodes holding matching S tuples (bytes > 0).
  uint32_t tracker = 0;     ///< self: the node running the scheduler.
  uint64_t msg_bytes = 0;   ///< Location/migration message size M.
};

/// Network cost of selectively broadcasting the `dir` source table's tuples
/// to the other table's locations, with no migration:
///   cost = Ball*Tnodes - Blocal + Bnodes*Tnodes*M
/// Returns 0 if either side is empty (no match: nothing is sent).
uint64_t SelectiveBroadcastCost(const KeyPlacement& placement, Direction dir);

/// A migrate-then-broadcast plan for one direction.
struct MigrationPlan {
  /// Total network bytes: broadcast + location messages + migration
  /// instructions + migrated tuples.
  uint64_t cost = 0;
  /// Nodes of the broadcast-*target* table whose tuples migrate away.
  std::vector<uint32_t> migrate;
  /// Their destination: the kept target node maximizing |R_i|+|S_i|.
  uint32_t dest = 0;
};

/// Computes the optimal migration set for broadcasting in direction `dir`
/// (paper Theorem 1: each node's keep/migrate choice is independent).
MigrationPlan PlanMigrateAndBroadcast(const KeyPlacement& placement,
                                      Direction dir);

/// The full 4-phase decision for one key: the cheaper direction's
/// migrate-and-broadcast plan (Theorem 2: this is the global optimum).
/// Ties choose R->S.
struct KeySchedule {
  Direction dir = Direction::kRtoS;
  MigrationPlan plan;
};
KeySchedule PlanOptimal(const KeyPlacement& placement);

/// The 3-phase decision: cheaper plain selective-broadcast direction.
/// Ties choose R->S. If `cost_out` is non-null it receives the winning cost.
Direction CheaperBroadcastDirection(const KeyPlacement& placement,
                                    uint64_t* cost_out = nullptr);

// --- Hot-key splitting (skew-robust scheduling) ---------------------------
//
// The per-key optimum (Theorem 2) minimizes bytes but concentrates a hot
// key's entire |R| x |S| cartesian product on one node. A HotKeyPlan
// instead fragments the target side's tuples across w worker nodes and
// broadcasts the other side to all w of them (a SharesSkew-style
// partitioned broadcast): every fragment holds all broadcast rows, so each
// (r, s) pair still joins exactly once, while the worst node's ingress and
// join work drop by ~w at the price of (w-1) extra broadcast copies.

/// A partitioned-broadcast plan for one hot key.
struct HotKeyPlan {
  /// False when no direction has both sides populated (nothing to plan).
  bool valid = false;
  /// Broadcast direction: this side's tuples are replicated to every
  /// worker; the opposite (target) side is fragmented across them.
  Direction dir = Direction::kRtoS;
  /// The w fragment-side nodes that receive work, in instruction order
  /// (ranked by local fragment+broadcast bytes, descending; ties keep the
  /// lowest node id, so w = 1 picks the same node the migration plan's
  /// forced-keep rule does).
  std::vector<uint32_t> workers;
  /// Total modeled network bytes: broadcast copies + location messages +
  /// fragment instructions + fragment payloads. Byte-exact against the
  /// wire under the default encodings, like MigrationPlan::cost.
  uint64_t cost = 0;
  /// Max modeled tuple bytes received by any single worker (fragments plus
  /// missing broadcast rows) — the quantity splitting exists to minimize.
  uint64_t bottleneck = 0;

  uint32_t split() const { return static_cast<uint32_t>(workers.size()); }
};

/// Searches both directions and every width w in [1, max_split] (0 = no
/// cap) for the plan with the smallest bottleneck; ties prefer lower total
/// cost, then smaller w, then R->S. Candidates whose total cost is not
/// strictly below the cheaper selective-broadcast direction are discarded
/// (at w = |targets| the split degenerates into that broadcast), so an
/// invalid result means "no split undercuts plain broadcast here".
/// `width_r`/`width_s` are serialized tuple widths — placement bytes are
/// exact multiples, and fragment chunks are modeled row-by-row exactly as
/// the transfer phase splits them.
HotKeyPlan PlanHotSplit(const KeyPlacement& placement, uint32_t width_r,
                        uint32_t width_s, uint32_t max_split);

/// The holder side of a hot split, as PlanHotSplit's cost model assumes it:
/// `pairs` lists each fragmented key's w workers consecutively, in split
/// order. Cuts the key's run of `block` (sorted by key) into w contiguous
/// near-equal pieces, earlier workers absorbing the remainder rows, and
/// appends piece k's row indices to (*rows_per_dest)[k-th worker].
void SplitHotRuns(const TupleBlock& block,
                  const std::vector<KeyNodePair>& pairs,
                  std::vector<std::vector<uint32_t>>* rows_per_dest);

/// The holder side of every instruction, shared by the barrier and the
/// pipelined driver: appends to (*rows_per_dest)[dst] the rows of `block`
/// (sorted by key) that one decoded instruction list routes to dst. A
/// location or migration pair routes its key's whole run to pair.node;
/// fragment pairs (`split`) cut each run across its workers (SplitHotRuns).
/// Pairs route in key order: a list whose keys descend (node-grouped pairs
/// restart the key sequence per group; the barrier holder concatenates one
/// list per tracker) is first merged by key from its non-decreasing runs,
/// ties toward the earlier run (a loser tree, O(pairs log runs)). So every
/// destination's rows ascend, and each data message is one key-ascending
/// run, while each destination gets exactly the rows per-pair EqualRange
/// would route.
void RouteInstructedRows(const TupleBlock& block,
                         const std::vector<KeyNodePair>& pairs, bool split,
                         std::vector<std::vector<uint32_t>>* rows_per_dest);

/// RouteInstructedRows over rows [first, last) of `block`, the only rows
/// that need be sorted by key and that hold the pairs' keys (the pipelined
/// holder's run of the instructing tracker's keys). Row indices stay those
/// of the whole block.
void RouteInstructedRows(const TupleBlock& block, uint64_t first,
                         uint64_t last, const std::vector<KeyNodePair>& pairs,
                         bool split,
                         std::vector<std::vector<uint32_t>>* rows_per_dest);

/// Max modeled tuple bytes received by any node under a
/// migrate-and-broadcast schedule (kept targets receive the broadcast they
/// lack; the destination also absorbs every migrated payload).
uint64_t PlanBottleneck(const KeyPlacement& placement, Direction dir,
                        const MigrationPlan& plan);

// --- Scheduler audit ("EXPLAIN") ------------------------------------------
//
// When a ScheduleAuditLog is attached (JoinConfig::schedule_audit), the
// track-join scheduling phase records one KeyScheduleAudit per distinct
// key: both selective-broadcast costs, both migrate-and-broadcast plans,
// the decision actually taken, and the per-key cost a Grace hash join
// would have paid. Recording is strictly passive — the audited costs are
// recomputed from the same pure cost functions the scheduler uses, so
// attaching a log changes neither schedules nor traffic.

/// How one key's schedule is classified for aggregate reporting.
enum class ScheduleClass : uint8_t {
  kFree = 0,           ///< Chosen cost 0: single-node or unmatched key.
  kBroadcastRtoS = 1,  ///< Plain selective broadcast, R tuples travel.
  kBroadcastStoR = 2,  ///< Plain selective broadcast, S tuples travel.
  kMigrated = 3,       ///< 4-phase plan with a non-empty migration set.
  kFailover = 4,       ///< Key re-planned against surviving replicas after
                       ///< a node death (any shape of transfer).
  kHotSplit = 5,       ///< Heavy hitter split across w workers (partitioned
                       ///< broadcast; see HotKeyPlan).
};
inline constexpr int kNumScheduleClasses = 6;

inline const char* ScheduleClassName(ScheduleClass cls) {
  switch (cls) {
    case ScheduleClass::kFree: return "free";
    case ScheduleClass::kBroadcastRtoS: return "broadcast_r_to_s";
    case ScheduleClass::kBroadcastStoR: return "broadcast_s_to_r";
    case ScheduleClass::kMigrated: return "migrated";
    case ScheduleClass::kFailover: return "failover";
    case ScheduleClass::kHotSplit: return "hot_split";
  }
  return "unknown";
}

/// Everything the scheduler considered and decided for one distinct key.
/// Direction-indexed arrays use static_cast<int>(Direction): 0 = R->S.
struct KeyScheduleAudit {
  uint64_t key = 0;
  /// SelectiveBroadcastCost in each direction (2-/3-phase candidates).
  uint64_t broadcast_cost[2] = {0, 0};
  /// PlanMigrateAndBroadcast cost in each direction (4-phase candidates).
  uint64_t plan_cost[2] = {0, 0};
  /// Size of each direction's optimal migration set.
  uint32_t migrate_count[2] = {0, 0};
  /// What the run actually did for this key.
  Direction chosen_dir = Direction::kRtoS;
  uint64_t chosen_cost = 0;
  uint32_t chosen_migrations = 0;
  /// Worker count of an adopted HotKeyPlan; 0 when the key was not split.
  uint32_t chosen_split = 0;
  /// What a Grace hash join would move for this key: all matching bytes
  /// except those already resident at the key's hash destination (which is
  /// the tracker node, by construction).
  uint64_t hash_join_cost = 0;
  /// Total matching bytes and node counts per side (placement summary).
  uint64_t r_bytes = 0, s_bytes = 0;
  uint32_t r_nodes = 0, s_nodes = 0;
  ScheduleClass cls = ScheduleClass::kFree;

  bool operator==(const KeyScheduleAudit&) const = default;
};

/// Fills the decision-independent audit fields (both directions' costs and
/// plans, the hash-join reference cost, placement summary) from one
/// placement. The caller sets chosen_* and then ClassifyAudit.
KeyScheduleAudit AuditPlacement(const KeyPlacement& placement);

/// Derives the decision class from the chosen_* fields.
inline ScheduleClass ClassifyAudit(const KeyScheduleAudit& audit) {
  if (audit.chosen_split > 0) return ScheduleClass::kHotSplit;
  if (audit.chosen_cost == 0 && audit.chosen_migrations == 0) {
    return ScheduleClass::kFree;
  }
  if (audit.chosen_migrations > 0) return ScheduleClass::kMigrated;
  return audit.chosen_dir == Direction::kRtoS
             ? ScheduleClass::kBroadcastRtoS
             : ScheduleClass::kBroadcastStoR;
}

/// Per-key audit sink. Mirrors the fabric's race-free queue design: each
/// tracker node appends only to its own lane during the scheduling phase,
/// so concurrent phase execution needs no locking, and collection in node
/// order keeps output deterministic. Fully inline so obs/ renderers can
/// consume audits without linking the core scheduler.
class ScheduleAuditLog {
 public:
  /// Arms the log for a run over `num_nodes` tracker nodes, dropping any
  /// previous run's records. The failover key set survives: recovery arms
  /// it once per failover and then replays the (audited) join.
  void Reset(uint32_t num_nodes) { lanes_.assign(num_nodes, {}); }

  bool armed() const { return !lanes_.empty(); }

  /// Marks keys whose rows were re-homed onto surviving replicas: their
  /// audits are re-classified as ScheduleClass::kFailover at Record time.
  /// Chosen costs are untouched, so the EXPLAIN byte reconciliation keeps
  /// holding — failover only changes which class a key's bytes bill to.
  /// Sorts and dedups in place; an empty vector clears the marking.
  void SetFailoverKeys(std::vector<uint64_t> keys) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    failover_keys_ = std::move(keys);
  }

  bool IsFailoverKey(uint64_t key) const {
    return std::binary_search(failover_keys_.begin(), failover_keys_.end(),
                              key);
  }

  /// Appends one key's audit. Only node `node`'s phase work may call this
  /// (same ownership rule as Fabric::Send).
  void Record(uint32_t node, const KeyScheduleAudit& audit) {
    if (!failover_keys_.empty() && IsFailoverKey(audit.key)) {
      KeyScheduleAudit tagged = audit;
      tagged.cls = ScheduleClass::kFailover;
      lanes_[node].push_back(tagged);
      return;
    }
    lanes_[node].push_back(audit);
  }

  /// All records, concatenated in tracker-node order.
  std::vector<KeyScheduleAudit> Collect() const {
    std::vector<KeyScheduleAudit> out;
    size_t total = 0;
    for (const auto& lane : lanes_) total += lane.size();
    out.reserve(total);
    for (const auto& lane : lanes_) {
      out.insert(out.end(), lane.begin(), lane.end());
    }
    return out;
  }

 private:
  std::vector<std::vector<KeyScheduleAudit>> lanes_;
  /// Sorted, deduped keys re-homed by replica failover.
  std::vector<uint64_t> failover_keys_;
};

/// Reference implementation for testing: exhaustively minimizes the paper's
/// integer program (min sum x_ij|R_i| + y_ij|S_j| s.t. every (i,j) pair is
/// joined somewhere) over all keep/migrate subsets in both directions, with
/// message costs included. Exponential; test-only.
uint64_t ExhaustiveOptimalCost(const KeyPlacement& placement);

/// Balance-aware scheduling (paper Section 5: "If some nodes exhibit more
/// locality than others, we need to take into account the balancing of
/// transfers among nodes and not only aim for minimal network traffic").
///
/// The per-key optimum leaves two traffic-free degrees of freedom:
///  * the migration destination may be ANY kept target node, and
///  * cost ties between the two directions are arbitrary.
/// A LoadBalancer spends both on the node with the least accumulated
/// ingress so far, so hot nodes stop attracting every consolidation.
/// Total network traffic is identical to PlanOptimal's by construction.
class LoadBalancer {
 public:
  explicit LoadBalancer(uint32_t num_nodes) : ingress_(num_nodes, 0) {}

  /// Like PlanOptimal, but breaks ties by projected ingress and records
  /// the schedule's per-node ingress for subsequent keys.
  KeySchedule PlanBalanced(const KeyPlacement& placement);

  /// Ingress bytes attributed so far (schedule data only, not tracking).
  const std::vector<uint64_t>& ingress() const { return ingress_; }

 private:
  std::vector<uint64_t> ingress_;
};

// --- Shared per-key planner ----------------------------------------------
//
// The scheduling phase's per-key decision logic (3TJ direction choice, 4TJ
// optimal/balanced migration plan, hot-split adoption, audit recording, and
// the fan-out into location / migration / fragment instruction pairs) is
// identical whether keys arrive all at once (barrier driver) or one frontier
// batch at a time (pipelined driver). KeyPlanner owns that logic so the two
// drivers cannot drift: instruction pairs, audit records and therefore
// traffic matrices stay byte-identical by construction.

/// Instruction pairs one planning pass appends, per destination node.
struct KeyPlanOutputs {
  std::vector<std::vector<KeyNodePair>> loc_to_r, loc_to_s;
  std::vector<std::vector<KeyNodePair>> migr_r, migr_s;
  std::vector<std::vector<KeyNodePair>> frag_r, frag_s;

  explicit KeyPlanOutputs(uint32_t num_nodes)
      : loc_to_r(num_nodes), loc_to_s(num_nodes), migr_r(num_nodes),
        migr_s(num_nodes), frag_r(num_nodes), frag_s(num_nodes) {}
};

/// One instruction stream of the transfer phase. The tracker sends the
/// `pairs` a planning pass produced as `instr` messages; the holder routes
/// the instructed rows of its R table (`r_side`) or S table and ships them
/// as `data` messages. A `split` stream carries hot-split fragments: each
/// key's worker group keeps the plain order-preserving pair encoding and
/// travels in one piece, and the holder cuts the key's run across the
/// workers. Every stream but the two location streams moves rows away from
/// their holder, into the receiver's kept rows rather than its probe rows.
struct InstructionStream {
  MessageType instr;
  MessageType data;
  bool r_side;
  bool split;
  std::vector<std::vector<KeyNodePair>> KeyPlanOutputs::*pairs;

  bool migrates() const {
    return instr != MessageType::kLocationsToR &&
           instr != MessageType::kLocationsToS;
  }
};

/// Every instruction stream, in send order. Both drivers iterate this table
/// (InstructionStreams) to send pairs, route rows, register handlers and
/// terminate streams; the split streams share their side's migration data
/// type.
inline constexpr InstructionStream kInstructionStreams[] = {
    {MessageType::kLocationsToR, MessageType::kDataR, true, false,
     &KeyPlanOutputs::loc_to_r},
    {MessageType::kLocationsToS, MessageType::kDataS, false, false,
     &KeyPlanOutputs::loc_to_s},
    {MessageType::kMigrateR, MessageType::kMigrationDataR, true, false,
     &KeyPlanOutputs::migr_r},
    {MessageType::kMigrateS, MessageType::kMigrationDataS, false, false,
     &KeyPlanOutputs::migr_s},
    {MessageType::kFragmentR, MessageType::kMigrationDataR, true, true,
     &KeyPlanOutputs::frag_r},
    {MessageType::kFragmentS, MessageType::kMigrationDataS, false, true,
     &KeyPlanOutputs::frag_s},
};

/// The streams a `version` run uses: all six for 4-phase, the two location
/// streams otherwise.
inline std::span<const InstructionStream> InstructionStreams(
    TrackJoinVersion version) {
  return {kInstructionStreams,
          version == TrackJoinVersion::k4Phase ? std::size(kInstructionStreams)
                                               : 2};
}

/// Plans one key at a time. Stateful: the balance-aware mode's LoadBalancer
/// accumulates projected ingress across calls, so a pipelined driver feeding
/// frontier batches in key order reproduces the barrier driver's schedule
/// exactly. Not thread-safe; one instance per tracker node.
class KeyPlanner {
 public:
  /// `audit` may be null (no EXPLAIN recording). `width_r`/`width_s` are
  /// serialized tuple widths; `direction` is the fixed 2-phase direction.
  KeyPlanner(const JoinConfig& config, TrackJoinVersion version,
             Direction direction, uint32_t num_nodes, uint32_t tracker,
             uint32_t width_r, uint32_t width_s, ScheduleAuditLog* audit)
      : config_(config), version_(version), direction_(direction),
        tracker_(tracker), width_r_(width_r), width_s_(width_s),
        audit_(audit), balancer_(num_nodes) {}

  /// Decides `key`'s schedule and appends its instruction pairs to `out`.
  /// `hot_candidate` is the caller's PlacementIterator::OutputProductAtLeast
  /// verdict (always false outside 4-phase or with splitting disabled).
  /// A key held by one R node and one S node is planned in closed form
  /// (PlanOneToOne) with the general path's decision and audit record.
  void PlanKey(uint64_t key, const KeyPlacement& placement, bool hot_candidate,
               KeyPlanOutputs* out);

  /// Plans every key of one merged (R, S) batch of tracker entries, in key
  /// order: walks the keys both sides hold (PlacementIterator) and flags a
  /// 4-phase key as a hot-split candidate when its tracked output product
  /// reaches config.hot_key_threshold. Both sides must be merged (sorted by
  /// key, node), as TryMergeTrackRuns leaves them.
  void PlanBatch(const std::vector<TrackEntry>& r,
                 const std::vector<TrackEntry>& s, KeyPlanOutputs* out);

  /// The balance-aware mode's accumulated ingress.
  const LoadBalancer& balancer() const { return balancer_; }

 private:
  /// PlanKey for a 1x1 placement: each direction's plan keeps the target's
  /// rows, so its cost is the broadcast side's bytes if the nodes differ
  /// plus M if that side's holder is not the tracker. Nothing migrates or
  /// splits; ties go to R->S, or with `balance_loads` through PlanBalanced.
  void PlanOneToOne(uint64_t key, const KeyPlacement& placement,
                    KeyPlanOutputs* out);

  JoinConfig config_;
  TrackJoinVersion version_;
  Direction direction_;
  uint32_t tracker_;
  uint32_t width_r_;
  uint32_t width_s_;
  ScheduleAuditLog* audit_;
  LoadBalancer balancer_;
};

}  // namespace tj

#endif  // TJ_CORE_SCHEDULE_H_
