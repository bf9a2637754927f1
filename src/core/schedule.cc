#include "core/schedule.h"

#include <algorithm>

#include "common/kway_merge.h"
#include "common/logging.h"
#include "core/tracker.h"

namespace tj {

namespace {

/// Broadcast-direction view: B tuples travel to the locations of T.
struct SideView {
  const std::vector<NodeSize>* bcast;   // B: the table being broadcast.
  const std::vector<NodeSize>* target;  // T: the table whose locations receive.
};

SideView ViewFor(const KeyPlacement& placement, Direction dir) {
  if (dir == Direction::kRtoS) return {&placement.r, &placement.s};
  return {&placement.s, &placement.r};
}

uint64_t BytesAt(const std::vector<NodeSize>& side, uint32_t node) {
  for (const auto& ns : side) {
    if (ns.node == node) return ns.bytes;
  }
  return 0;
}

uint64_t SumBytes(const std::vector<NodeSize>& side) {
  uint64_t total = 0;
  for (const auto& ns : side) total += ns.bytes;
  return total;
}

/// Number of broadcast-side nodes excluding the tracker (they each receive
/// location messages over the network; the tracker's own copy is free).
uint64_t BcastNodesExcludingTracker(const std::vector<NodeSize>& bcast,
                                    uint32_t tracker) {
  uint64_t n = 0;
  for (const auto& ns : bcast) {
    if (ns.node != tracker) ++n;
  }
  return n;
}

}  // namespace

uint64_t SelectiveBroadcastCost(const KeyPlacement& placement, Direction dir) {
  SideView view = ViewFor(placement, dir);
  if (view.bcast->empty() || view.target->empty()) return 0;
  const uint64_t b_all = SumBytes(*view.bcast);
  uint64_t b_local = 0;
  for (const auto& ns : *view.bcast) {
    if (BytesAt(*view.target, ns.node) > 0) b_local += ns.bytes;
  }
  const uint64_t b_nodes =
      BcastNodesExcludingTracker(*view.bcast, placement.tracker);
  const uint64_t t_nodes = view.target->size();
  return b_all * t_nodes - b_local + b_nodes * t_nodes * placement.msg_bytes;
}

MigrationPlan PlanMigrateAndBroadcast(const KeyPlacement& placement,
                                      Direction dir) {
  SideView view = ViewFor(placement, dir);
  MigrationPlan plan;
  if (view.bcast->empty() || view.target->empty()) return plan;

  const uint64_t b_all = SumBytes(*view.bcast);
  const uint64_t b_nodes =
      BcastNodesExcludingTracker(*view.bcast, placement.tracker);
  const uint64_t m = placement.msg_bytes;

  plan.cost = SelectiveBroadcastCost(placement, dir);

  // The target node with the largest |B_i| + |T_i| is forced to keep its
  // tuples (the migration set may not cover all target nodes). Ties keep
  // the lowest node id, deterministically.
  uint32_t max_t = view.target->front().node;
  uint64_t max_sum = 0;
  for (const auto& ns : *view.target) {
    uint64_t sum = ns.bytes + BytesAt(*view.bcast, ns.node);
    if (sum > max_sum || (sum == max_sum && ns.node < max_t)) {
      max_sum = sum;
      max_t = ns.node;
    }
  }
  plan.dest = max_t;

  // Theorem 1: each remaining target node's keep/migrate decision is
  // independent. Migrating node i removes one broadcast destination
  // (saving b_all - b_i tuple bytes and b_nodes location messages) at the
  // price of moving its |T_i| bytes plus one migration instruction.
  for (const auto& ns : *view.target) {
    if (ns.node == max_t) continue;
    int64_t delta = static_cast<int64_t>(BytesAt(*view.bcast, ns.node)) +
                    static_cast<int64_t>(ns.bytes) -
                    static_cast<int64_t>(b_all) -
                    static_cast<int64_t>(b_nodes * m);
    if (ns.node != placement.tracker) {
      delta += static_cast<int64_t>(m);
    }
    if (delta < 0) {
      plan.cost = static_cast<uint64_t>(static_cast<int64_t>(plan.cost) + delta);
      plan.migrate.push_back(ns.node);
    }
  }
  return plan;
}

KeyScheduleAudit AuditPlacement(const KeyPlacement& placement) {
  KeyScheduleAudit audit;
  for (Direction dir : {Direction::kRtoS, Direction::kStoR}) {
    const int d = static_cast<int>(dir);
    audit.broadcast_cost[d] = SelectiveBroadcastCost(placement, dir);
    MigrationPlan plan = PlanMigrateAndBroadcast(placement, dir);
    audit.plan_cost[d] = plan.cost;
    audit.migrate_count[d] = static_cast<uint32_t>(plan.migrate.size());
  }
  audit.r_bytes = SumBytes(placement.r);
  audit.s_bytes = SumBytes(placement.s);
  audit.r_nodes = static_cast<uint32_t>(placement.r.size());
  audit.s_nodes = static_cast<uint32_t>(placement.s.size());
  // Grace hash join ships every matching tuple to the key's hash
  // destination — the tracker node itself — except the bytes already there.
  audit.hash_join_cost = audit.r_bytes + audit.s_bytes -
                         BytesAt(placement.r, placement.tracker) -
                         BytesAt(placement.s, placement.tracker);
  return audit;
}

KeySchedule PlanOptimal(const KeyPlacement& placement) {
  KeySchedule schedule;
  MigrationPlan rs = PlanMigrateAndBroadcast(placement, Direction::kRtoS);
  MigrationPlan sr = PlanMigrateAndBroadcast(placement, Direction::kStoR);
  if (rs.cost <= sr.cost) {
    schedule.dir = Direction::kRtoS;
    schedule.plan = std::move(rs);
  } else {
    schedule.dir = Direction::kStoR;
    schedule.plan = std::move(sr);
  }
  return schedule;
}

uint64_t PlanBottleneck(const KeyPlacement& placement, Direction dir,
                        const MigrationPlan& plan) {
  SideView view = ViewFor(placement, dir);
  if (view.bcast->empty() || view.target->empty()) return 0;
  const uint64_t b_all = SumBytes(*view.bcast);
  uint64_t migrated = 0;
  for (uint32_t m : plan.migrate) migrated += BytesAt(*view.target, m);
  uint64_t worst = 0;
  for (const auto& t : *view.target) {
    if (std::find(plan.migrate.begin(), plan.migrate.end(), t.node) !=
        plan.migrate.end()) {
      continue;
    }
    uint64_t in = b_all - BytesAt(*view.bcast, t.node);
    if (t.node == plan.dest) in += migrated;
    worst = std::max(worst, in);
  }
  return worst;
}

HotKeyPlan PlanHotSplit(const KeyPlacement& placement, uint32_t width_r,
                        uint32_t width_s, uint32_t max_split) {
  HotKeyPlan best;
  const uint64_t m = placement.msg_bytes;
  // Splitting only makes sense while it undercuts plain selective
  // broadcast on total bytes (at w = |targets| the two coincide, broadcast
  // then winning on simplicity), so candidates at or above this price are
  // discarded and the cheapest-bottleneck survivor wins.
  const uint64_t bcast_min =
      std::min(SelectiveBroadcastCost(placement, Direction::kRtoS),
               SelectiveBroadcastCost(placement, Direction::kStoR));
  for (Direction dir : {Direction::kRtoS, Direction::kStoR}) {
    SideView view = ViewFor(placement, dir);
    if (view.bcast->empty() || view.target->empty()) continue;
    const uint32_t width_f =
        dir == Direction::kRtoS ? width_s : width_r;  // Fragment = target.
    const uint64_t b_all = SumBytes(*view.bcast);
    const uint64_t f_all = SumBytes(*view.target);
    const uint64_t b_msg_nodes =
        BcastNodesExcludingTracker(*view.bcast, placement.tracker);

    // Worker candidates: fragment-side holders ranked by the bytes already
    // local to them (their fragment plus any broadcast copy), descending;
    // ties keep the lowest node id. The w = 1 prefix is therefore the same
    // node PlanMigrateAndBroadcast forces to keep its tuples.
    std::vector<NodeSize> ranked = *view.target;
    std::sort(ranked.begin(), ranked.end(),
              [&](const NodeSize& a, const NodeSize& b) {
                const uint64_t la = a.bytes + BytesAt(*view.bcast, a.node);
                const uint64_t lb = b.bytes + BytesAt(*view.bcast, b.node);
                if (la != lb) return la > lb;
                return a.node < b.node;
              });

    const uint32_t limit =
        max_split == 0
            ? static_cast<uint32_t>(ranked.size())
            : std::min<uint32_t>(max_split,
                                 static_cast<uint32_t>(ranked.size()));
    for (uint32_t w = 1; w <= limit; ++w) {
      // Bytes already resident at the workers (free local copies).
      uint64_t b_local = 0, f_local = 0;
      for (uint32_t j = 0; j < w; ++j) {
        b_local += BytesAt(*view.bcast, ranked[j].node);
        f_local += ranked[j].bytes;
      }
      // Non-worker fragment holders each receive w <key, worker> pairs
      // (free when that holder is the tracker) and ship their whole run.
      uint64_t frag_msg_nodes = 0;
      for (uint32_t j = w; j < ranked.size(); ++j) {
        if (ranked[j].node != placement.tracker) ++frag_msg_nodes;
      }
      const uint64_t cost = b_all * w - b_local + b_msg_nodes * w * m +
                            frag_msg_nodes * w * m + (f_all - f_local);
      if (cost >= bcast_min) continue;

      // Per-worker ingress, modeling the row-exact chunking the transfer
      // phase performs: each non-worker run of n rows sends ceil/floor
      // chunks of n/w rows, earlier workers taking the remainder.
      uint64_t bottleneck = 0;
      for (uint32_t j = 0; j < w; ++j) {
        uint64_t frag_in = 0;
        for (uint32_t i = w; i < ranked.size(); ++i) {
          const uint64_t rows = ranked[i].bytes / width_f;
          frag_in += (rows / w + (j < rows % w ? 1 : 0)) * width_f;
        }
        const uint64_t in =
            frag_in + b_all - BytesAt(*view.bcast, ranked[j].node);
        bottleneck = std::max(bottleneck, in);
      }

      const bool better =
          !best.valid || bottleneck < best.bottleneck ||
          (bottleneck == best.bottleneck &&
           (cost < best.cost || (cost == best.cost && w < best.split())));
      if (better) {
        best.valid = true;
        best.dir = dir;
        best.cost = cost;
        best.bottleneck = bottleneck;
        best.workers.clear();
        best.workers.reserve(w);
        for (uint32_t j = 0; j < w; ++j) best.workers.push_back(ranked[j].node);
      }
    }
  }
  return best;
}

namespace {

/// SplitHotRuns over the rows `runs` searches.
void SplitRuns(EqualRangeCursor* runs, const std::vector<KeyNodePair>& pairs,
               std::vector<std::vector<uint32_t>>* rows_per_dest) {
  size_t i = 0;
  while (i < pairs.size()) {
    const uint64_t key = pairs[i].key;
    size_t j = i;
    while (j < pairs.size() && pairs[j].key == key) ++j;
    const uint64_t w = j - i;
    auto [lo, hi] = runs->Seek(key);
    const uint64_t count = hi - lo;
    uint64_t row = lo;
    for (uint64_t k = 0; k < w; ++k) {
      const uint64_t take = count / w + (k < count % w ? 1 : 0);
      auto& dst_rows = (*rows_per_dest)[pairs[i + k].node];
      for (uint64_t t = 0; t < take; ++t) {
        dst_rows.push_back(static_cast<uint32_t>(row++));
      }
    }
    i = j;
  }
}

}  // namespace

void SplitHotRuns(const TupleBlock& block,
                  const std::vector<KeyNodePair>& pairs,
                  std::vector<std::vector<uint32_t>>* rows_per_dest) {
  EqualRangeCursor runs(block);
  SplitRuns(&runs, pairs, rows_per_dest);
}

namespace {

/// Merge cursor over one non-decreasing run of instruction pairs.
struct PairRunCursor {
  const KeyNodePair* head;
  const KeyNodePair* end;

  bool Valid() const { return head != end; }
  uint64_t key() const { return head->key; }
  void Next() { ++head; }
};

/// `pairs` in non-decreasing key order: the list itself when its keys never
/// descend, else its maximal non-decreasing runs merged by key into
/// `*merged`, ties toward the earlier run.
const std::vector<KeyNodePair>& InKeyOrder(
    const std::vector<KeyNodePair>& pairs, std::vector<KeyNodePair>* merged) {
  std::vector<PairRunCursor> runs;
  const KeyNodePair* run_start = pairs.data();
  for (size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i].key < pairs[i - 1].key) {
      runs.push_back({run_start, pairs.data() + i});
      run_start = pairs.data() + i;
    }
  }
  if (runs.empty()) return pairs;
  runs.push_back({run_start, pairs.data() + pairs.size()});
  merged->reserve(pairs.size());
  for (LoserTree<PairRunCursor> tree(&runs); !tree.Done(); tree.Pop()) {
    merged->push_back(*tree.Top().head);
  }
  return *merged;
}

}  // namespace

void RouteInstructedRows(const TupleBlock& block,
                         const std::vector<KeyNodePair>& pairs, bool split,
                         std::vector<std::vector<uint32_t>>* rows_per_dest) {
  RouteInstructedRows(block, 0, block.size(), pairs, split, rows_per_dest);
}

void RouteInstructedRows(const TupleBlock& block, uint64_t first,
                         uint64_t last, const std::vector<KeyNodePair>& pairs,
                         bool split,
                         std::vector<std::vector<uint32_t>>* rows_per_dest) {
  std::vector<KeyNodePair> merged;
  const std::vector<KeyNodePair>& ordered = InKeyOrder(pairs, &merged);
  EqualRangeCursor runs(block, first, last);
  if (split) {
    SplitRuns(&runs, ordered, rows_per_dest);
    return;
  }
  for (const KeyNodePair& pair : ordered) {
    auto [lo, hi] = runs.Seek(pair.key);
    auto& dst_rows = (*rows_per_dest)[pair.node];
    for (uint64_t row = lo; row < hi; ++row) {
      dst_rows.push_back(static_cast<uint32_t>(row));
    }
  }
}

Direction CheaperBroadcastDirection(const KeyPlacement& placement,
                                    uint64_t* cost_out) {
  uint64_t rs = SelectiveBroadcastCost(placement, Direction::kRtoS);
  uint64_t sr = SelectiveBroadcastCost(placement, Direction::kStoR);
  if (cost_out != nullptr) *cost_out = std::min(rs, sr);
  return rs <= sr ? Direction::kRtoS : Direction::kStoR;
}

KeySchedule LoadBalancer::PlanBalanced(const KeyPlacement& placement) {
  MigrationPlan plans[2] = {
      PlanMigrateAndBroadcast(placement, Direction::kRtoS),
      PlanMigrateAndBroadcast(placement, Direction::kStoR)};

  // Per-direction per-node ingress the schedule would add: every kept
  // target node receives the broadcast-side bytes it lacks; the migration
  // destination also receives the migrated bytes.
  auto ingress_of = [&](Direction dir, const MigrationPlan& plan,
                        uint32_t dest, std::vector<uint64_t>* per_node) {
    SideView view = ViewFor(placement, dir);
    per_node->assign(ingress_.size(), 0);
    if (view.bcast->empty() || view.target->empty()) return;
    uint64_t b_all = SumBytes(*view.bcast);
    uint64_t migrated = 0;
    for (const NodeSize& t : *view.target) {
      bool migrates = std::find(plan.migrate.begin(), plan.migrate.end(),
                                t.node) != plan.migrate.end();
      if (migrates) {
        migrated += t.bytes;
      } else {
        (*per_node)[t.node] += b_all - BytesAt(*view.bcast, t.node);
      }
    }
    (*per_node)[dest] += migrated;
  };

  // Pick the migration destination minimizing projected peak ingress
  // among the kept target nodes (any of them is cost-identical).
  auto best_dest = [&](Direction dir, const MigrationPlan& plan) {
    SideView view = ViewFor(placement, dir);
    uint32_t best = plan.dest;
    uint64_t best_load = ~0ULL;
    for (const NodeSize& t : *view.target) {
      if (std::find(plan.migrate.begin(), plan.migrate.end(), t.node) !=
          plan.migrate.end()) {
        continue;
      }
      if (ingress_[t.node] < best_load) {
        best_load = ingress_[t.node];
        best = t.node;
      }
    }
    return best;
  };

  KeySchedule schedule;
  Direction dirs[2] = {Direction::kRtoS, Direction::kStoR};
  int pick;
  if (plans[0].cost != plans[1].cost) {
    pick = plans[0].cost < plans[1].cost ? 0 : 1;
  } else {
    // Cost tie: choose the direction whose ingress lands on cooler nodes.
    uint64_t peak[2];
    for (int d = 0; d < 2; ++d) {
      std::vector<uint64_t> add;
      ingress_of(dirs[d], plans[d], best_dest(dirs[d], plans[d]), &add);
      peak[d] = 0;
      for (size_t i = 0; i < add.size(); ++i) {
        peak[d] = std::max(peak[d], ingress_[i] + add[i]);
      }
    }
    pick = peak[0] <= peak[1] ? 0 : 1;
  }

  schedule.dir = dirs[pick];
  schedule.plan = std::move(plans[pick]);
  schedule.plan.dest = best_dest(schedule.dir, schedule.plan);

  std::vector<uint64_t> add;
  ingress_of(schedule.dir, schedule.plan, schedule.plan.dest, &add);
  for (size_t i = 0; i < add.size(); ++i) ingress_[i] += add[i];
  return schedule;
}

uint64_t ExhaustiveOptimalCost(const KeyPlacement& placement) {
  uint64_t best = ~0ULL;
  for (Direction dir : {Direction::kRtoS, Direction::kStoR}) {
    SideView view = ViewFor(placement, dir);
    if (view.bcast->empty() || view.target->empty()) return 0;
    const uint64_t b_all = SumBytes(*view.bcast);
    const uint64_t b_nodes =
        BcastNodesExcludingTracker(*view.bcast, placement.tracker);
    const size_t t = view.target->size();
    TJ_CHECK_LE(t, 20u) << "exhaustive search is test-only";
    // Enumerate every non-empty subset of target nodes that keeps its
    // tuples; all others migrate to some kept node.
    for (uint64_t mask = 1; mask < (1ULL << t); ++mask) {
      uint64_t kept = static_cast<uint64_t>(__builtin_popcountll(mask));
      uint64_t cost = b_all * kept;
      for (size_t i = 0; i < t; ++i) {
        const NodeSize& ns = (*view.target)[i];
        if (mask & (1ULL << i)) {
          cost -= BytesAt(*view.bcast, ns.node);  // Local broadcast copies.
        } else {
          cost += ns.bytes;  // Migration payload.
          if (ns.node != placement.tracker) cost += placement.msg_bytes;
        }
      }
      cost += b_nodes * kept * placement.msg_bytes;
      best = std::min(best, cost);
    }
  }
  return best;
}

void KeyPlanner::PlanOneToOne(uint64_t key, const KeyPlacement& p,
                              KeyPlanOutputs* out) {
  const NodeSize& r = p.r.front();
  const NodeSize& s = p.s.front();
  const bool remote = r.node != s.node;
  const uint64_t cost[2] = {
      (remote ? r.bytes : 0) + (r.node != p.tracker ? p.msg_bytes : 0),
      (remote ? s.bytes : 0) + (s.node != p.tracker ? p.msg_bytes : 0)};
  Direction dir = direction_;
  if (version_ == TrackJoinVersion::k4Phase && config_.balance_loads) {
    dir = balancer_.PlanBalanced(p).dir;  // A 1x1 plan never migrates.
  } else if (version_ != TrackJoinVersion::k2Phase) {
    dir = cost[0] <= cost[1] ? Direction::kRtoS : Direction::kStoR;
  }
  const bool rs = dir == Direction::kRtoS;

  if (audit_ != nullptr) {
    KeyScheduleAudit rec = AuditPlacement(p);
    rec.key = key;
    rec.chosen_dir = dir;
    rec.chosen_cost = cost[rs ? 0 : 1];
    rec.cls = ClassifyAudit(rec);
    audit_->Record(tracker_, rec);
  }

  auto& loc_out = rs ? out->loc_to_r : out->loc_to_s;
  loc_out[(rs ? r : s).node].push_back(KeyNodePair{key, (rs ? s : r).node});
}

void KeyPlanner::PlanKey(uint64_t key, const KeyPlacement& placement,
                         bool hot_candidate, KeyPlanOutputs* out) {
  const KeyPlacement& p = placement;
  // A 1x1 key never splits: PlanHotSplit's one-worker plan costs exactly
  // the plain broadcast it must undercut.
  if (p.r.size() == 1 && p.s.size() == 1) {
    PlanOneToOne(key, p, out);
    return;
  }

  Direction dir = direction_;
  std::vector<uint32_t> migrate;
  bool has_migration_phase = false;
  uint32_t dest = 0;
  uint64_t chosen_cost = 0;
  HotKeyPlan hot;
  if (version_ == TrackJoinVersion::k3Phase) {
    dir = CheaperBroadcastDirection(p, &chosen_cost);
  } else if (version_ == TrackJoinVersion::k4Phase) {
    KeySchedule sched =
        config_.balance_loads ? balancer_.PlanBalanced(p) : PlanOptimal(p);
    dir = sched.dir;
    dest = sched.plan.dest;
    chosen_cost = sched.plan.cost;
    migrate = std::move(sched.plan.migrate);
    has_migration_phase = true;

    // Heavy-hitter splitting: a key whose modeled output reaches the
    // threshold may trade extra broadcast copies for a lower per-node
    // bottleneck. Each alternative is strong on a different axis — the
    // migration plan minimizes total bytes but funnels the whole key
    // through one node, while selective broadcast spreads load but
    // ships B_all to every target — so the hot plan is adopted only
    // when it strictly beats migration on the per-node bottleneck
    // (PlanHotSplit already rejects anything not strictly cheaper than
    // selective broadcast). Uniform workloads never reach the
    // threshold, so they never split.
    if (hot_candidate) {
      HotKeyPlan candidate =
          PlanHotSplit(p, width_r_, width_s_, config_.hot_key_max_split);
      MigrationPlan base;
      base.dest = dest;
      base.migrate = migrate;
      const uint64_t plan_bn = PlanBottleneck(p, dir, base);
      if (candidate.valid && candidate.bottleneck < plan_bn) {
        hot = std::move(candidate);
        dir = hot.dir;
        chosen_cost = hot.cost;
        migrate.clear();
      }
    }
  }

  if (audit_ != nullptr) {
    KeyScheduleAudit rec = AuditPlacement(p);
    rec.key = key;
    rec.chosen_dir = dir;
    if (version_ == TrackJoinVersion::k2Phase) {
      // 2-phase sends in the fixed direction at plain broadcast cost
      // (modeled; 2-phase tracking carries no counts, so multiplicity
      // > 1 makes actual bytes exceed this model).
      chosen_cost = rec.broadcast_cost[static_cast<int>(dir)];
    }
    rec.chosen_cost = chosen_cost;
    rec.chosen_migrations = static_cast<uint32_t>(migrate.size());
    rec.chosen_split = hot.valid ? hot.split() : 0;
    rec.cls = ClassifyAudit(rec);
    audit_->Record(tracker_, rec);
  }

  const auto& bcast_side = dir == Direction::kRtoS ? p.r : p.s;
  const auto& target_side = dir == Direction::kRtoS ? p.s : p.r;
  auto& loc_out = dir == Direction::kRtoS ? out->loc_to_r : out->loc_to_s;
  auto& migr_out = dir == Direction::kRtoS ? out->migr_s : out->migr_r;

  if (hot.valid) {
    // Hot split: every broadcast-side node learns all w workers, and
    // every non-worker fragment holder learns the w-way split of its
    // run (fragment instructions mirror migration instructions but
    // carry one pair per worker, in worker order).
    auto& frag_out = dir == Direction::kRtoS ? out->frag_s : out->frag_r;
    for (const NodeSize& t : target_side) {
      if (std::find(hot.workers.begin(), hot.workers.end(), t.node) !=
          hot.workers.end()) {
        continue;  // Workers keep their own fragment rows.
      }
      for (uint32_t worker : hot.workers) {
        frag_out[t.node].push_back(KeyNodePair{key, worker});
      }
    }
    for (const NodeSize& b : bcast_side) {
      for (uint32_t worker : hot.workers) {
        loc_out[b.node].push_back(KeyNodePair{key, worker});
      }
    }
    return;
  }

  // Migration instructions (4-phase): each migrating node learns the
  // destination for its tuples of this key.
  for (uint32_t m : migrate) {
    migr_out[m].push_back(KeyNodePair{key, dest});
  }

  // Location list: every broadcast-side node learns each surviving
  // target location.
  for (const NodeSize& b : bcast_side) {
    for (const NodeSize& t : target_side) {
      if (has_migration_phase &&
          std::find(migrate.begin(), migrate.end(), t.node) !=
              migrate.end()) {
        continue;  // Migrated away: no longer a destination.
      }
      loc_out[b.node].push_back(KeyNodePair{key, t.node});
    }
  }
}

void KeyPlanner::PlanBatch(const std::vector<TrackEntry>& r,
                           const std::vector<TrackEntry>& s,
                           KeyPlanOutputs* out) {
  const bool split_hot = version_ == TrackJoinVersion::k4Phase &&
                         config_.hot_key_threshold > 0;
  PlacementIterator it(r, s, width_r_, width_s_, tracker_,
                       config_.MsgBytes());
  while (it.Next()) {
    PlanKey(it.key(), it.placement(),
            split_hot && it.OutputProductAtLeast(config_.hot_key_threshold),
            out);
  }
}

}  // namespace tj
