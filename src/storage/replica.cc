#include "storage/replica.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace tj {

ReplicaMap::ReplicaMap(uint32_t num_nodes, uint32_t replication)
    : num_nodes_(num_nodes),
      replication_(std::max(1u, std::min(replication, num_nodes))) {
  TJ_CHECK_GT(num_nodes, 0u);
}

uint32_t ReplicaMap::SurvivingHolder(uint32_t partition,
                                     const std::vector<bool>& alive) const {
  TJ_CHECK_EQ(alive.size(), static_cast<size_t>(num_nodes_));
  for (uint32_t copy = 0; copy < replication_; ++copy) {
    uint32_t holder = HolderOf(partition, copy);
    if (alive[holder]) return holder;
  }
  return kNoNode;
}

bool ReplicaMap::CanRecover(const std::vector<bool>& alive) const {
  for (uint32_t p = 0; p < num_nodes_; ++p) {
    if (SurvivingHolder(p, alive) == kNoNode) return false;
  }
  return true;
}

Result<SurvivorPlan> PlanSurvivors(uint32_t num_nodes,
                                   const std::vector<uint32_t>& dead) {
  SurvivorPlan plan;
  plan.original_to_live.assign(num_nodes, ReplicaMap::kNoNode);
  std::vector<bool> alive(num_nodes, true);
  for (uint32_t node : dead) {
    if (node < num_nodes) alive[node] = false;
  }
  for (uint32_t node = 0; node < num_nodes; ++node) {
    if (!alive[node]) continue;
    plan.original_to_live[node] =
        static_cast<uint32_t>(plan.live_to_original.size());
    plan.live_to_original.push_back(node);
  }
  if (plan.live_to_original.empty()) {
    return Status::Unavailable("no node survives the failure (all " +
                               std::to_string(num_nodes) + " dead)");
  }
  return plan;
}

uint64_t ReplicatedTable::ReplicaBytes() const {
  if (map_.replication() <= 1) return 0;
  uint64_t row_bytes = 0;
  for (uint32_t p = 0; p < primary_->num_nodes(); ++p) {
    const TupleBlock& block = primary_->node(p);
    row_bytes += block.size() * (8 + primary_->payload_width());
  }
  return row_bytes * (map_.replication() - 1);
}

Result<PartitionedTable> ReplicatedTable::FailoverView(
    const SurvivorPlan& plan, std::vector<uint64_t>* rehomed_keys) const {
  const uint32_t n = primary_->num_nodes();
  TJ_CHECK_EQ(plan.original_to_live.size(), static_cast<size_t>(n));
  std::vector<bool> alive(n, false);
  for (uint32_t node : plan.live_to_original) alive[node] = true;

  PartitionedTable out(primary_->name(), plan.num_live(),
                       primary_->payload_width());
  for (uint32_t p = 0; p < n; ++p) {
    const TupleBlock& block = primary_->node(p);
    uint32_t holder = alive[p] ? p : map_.SurvivingHolder(p, alive);
    if (holder == ReplicaMap::kNoNode) {
      return Status::Unavailable(
          "partition " + std::to_string(p) + " of table '" +
          primary_->name() + "' lost all " +
          std::to_string(map_.replication()) +
          " cop" + (map_.replication() == 1 ? "y" : "ies") +
          " (replication factor too small for this failure)");
    }
    // A surviving node can collect several partitions: append with the
    // vectors' geometric growth, not an exact reserve per partition.
    TupleBlock& dst = out.node(plan.original_to_live[holder]);
    for (uint64_t row = 0; row < block.size(); ++row) {
      dst.AppendFrom(block, row);
    }
    if (holder != p && rehomed_keys != nullptr) {
      rehomed_keys->insert(rehomed_keys->end(), block.keys().begin(),
                           block.keys().end());
    }
  }
  return out;
}

}  // namespace tj
