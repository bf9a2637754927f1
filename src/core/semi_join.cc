#include "core/semi_join.h"

#include <string>
#include <utility>
#include <vector>

#include "baseline/hash_join.h"
#include "common/logging.h"
#include "filter/bloom.h"
#include "net/fabric.h"

namespace tj {

namespace {

/// Builds one Bloom filter per node over a table's local keys, all sized
/// identically (so they can be unioned) from the table's largest partition.
std::vector<BloomFilter> BuildFilters(const PartitionedTable& table,
                                      uint32_t bits_per_key) {
  uint64_t max_rows = 1;
  for (uint32_t node = 0; node < table.num_nodes(); ++node) {
    max_rows = std::max(max_rows, table.node(node).size());
  }
  std::vector<BloomFilter> filters;
  filters.reserve(table.num_nodes());
  for (uint32_t node = 0; node < table.num_nodes(); ++node) {
    filters.emplace_back(max_rows, bits_per_key);
    for (uint64_t key : table.node(node).keys()) filters.back().Add(key);
  }
  return filters;
}

/// Decodes node `node`'s inbox of filter messages: 2·(n−1) well-formed
/// filters, or Status::Corruption.
Result<std::vector<BloomFilter>> TakeFilters(Fabric* fabric, uint32_t node) {
  std::vector<Message> inbox = fabric->TakeInbox(node, MessageType::kFilter);
  const size_t expected = 2 * (static_cast<size_t>(fabric->num_nodes()) - 1);
  if (inbox.size() != expected) {
    return Status::Corruption("node " + std::to_string(node) + " received " +
                              std::to_string(inbox.size()) +
                              " bloom filters, expected " +
                              std::to_string(expected));
  }
  std::vector<BloomFilter> filters;
  filters.reserve(expected);
  for (const Message& msg : inbox) {
    ByteReader reader(msg.data);
    TJ_ASSIGN_OR_RETURN(BloomFilter filter,
                        BloomFilter::TryDeserialize(&reader));
    if (!reader.Done()) {
      return Status::Corruption("trailing bytes after a bloom filter from "
                                "node " + std::to_string(msg.src));
    }
    filters.push_back(std::move(filter));
  }
  return filters;
}

void MergeResult(const FilteredInputs& pre, JoinResult* result) {
  result->traffic.Merge(pre.filter_traffic);
  StepProfile profile = std::move(result->profile);
  profile.Prepend(pre.profile);
  profile.algorithm = "sj+" + profile.algorithm;
  // The filter broadcast and the join may stress different NICs: the
  // run's bottleneck is the merged matrix's, not the larger of the two.
  profile.run_max_node_bytes = result->traffic.MaxNodeBytes();
  result->SetProfile(std::move(profile));
}

}  // namespace

Result<FilteredInputs> ExchangeFiltersAndPrune(const PartitionedTable& r,
                                               const PartitionedTable& s,
                                               const SemiJoinConfig& semi) {
  TJ_CHECK_EQ(r.num_nodes(), s.num_nodes());
  const uint32_t n = r.num_nodes();
  Fabric fabric(n);

  std::vector<BloomFilter> r_filters = BuildFilters(r, semi.bloom_bits_per_key);
  std::vector<BloomFilter> s_filters = BuildFilters(s, semi.bloom_bits_per_key);

  // Broadcast both tables' per-node filters (one serialized copy to each
  // other node; the figures count this under the Filter class).
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "broadcast bloom filters", [&](uint32_t node) {
    ByteBuffer r_buf, s_buf;
    r_filters[node].Serialize(&r_buf);
    s_filters[node].Serialize(&s_buf);
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (dst == node) continue;
      fabric.Send(node, dst, MessageType::kFilter, r_buf);
      fabric.Send(node, dst, MessageType::kFilter, s_buf);
    }
    return Status::OK();
  }));

  FilteredInputs out{PartitionedTable(r.name(), n, r.payload_width()),
                     PartitionedTable(s.name(), n, s.payload_width()),
                     TrafficMatrix(n),
                     {},
                     0,
                     0};

  // Prune against the other table's filters: the node's own pair plus the
  // pairs decoded from its inbox. Each node checks all N per-node filters
  // (a key may match if ANY node's filter says so); keeping the filters
  // separate preserves each one's designed false-positive rate, whereas a
  // union of N same-size filters would multiply the fill factor.
  auto may_match = [](const std::vector<const BloomFilter*>& filters,
                      uint64_t key) {
    for (const BloomFilter* f : filters) {
      if (f->MayContain(key)) return true;
    }
    return false;
  };
  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      "apply filters", [&](uint32_t node) -> Status {
    TJ_ASSIGN_OR_RETURN(std::vector<BloomFilter> received,
                        TakeFilters(&fabric, node));
    // Delivery is by source node, then send order: each other node's R
    // filter, then its S filter.
    std::vector<const BloomFilter*> r_seen, s_seen;
    for (uint32_t src = 0, next = 0; src < n; ++src) {
      if (src == node) {
        r_seen.push_back(&r_filters[node]);
        s_seen.push_back(&s_filters[node]);
      } else {
        r_seen.push_back(&received[next++]);
        s_seen.push_back(&received[next++]);
      }
    }
    const TupleBlock& rb = r.node(node);
    for (uint64_t row = 0; row < rb.size(); ++row) {
      if (may_match(s_seen, rb.Key(row))) {
        out.r.node(node).AppendFrom(rb, row);
      } else {
        ++out.r_rows_pruned;
      }
    }
    const TupleBlock& sb = s.node(node);
    for (uint64_t row = 0; row < sb.size(); ++row) {
      if (may_match(r_seen, sb.Key(row))) {
        out.s.node(node).AppendFrom(sb, row);
      } else {
        ++out.s_rows_pruned;
      }
    }
    return Status::OK();
  }));

  out.filter_traffic = fabric.traffic();
  out.profile = BuildStepProfile("semi-join filter", fabric);
  return out;
}

Result<JoinResult> TryRunFilteredHashJoin(const PartitionedTable& r,
                                          const PartitionedTable& s,
                                          const JoinConfig& config,
                                          const SemiJoinConfig& semi) {
  TJ_ASSIGN_OR_RETURN(FilteredInputs pre, ExchangeFiltersAndPrune(r, s, semi));
  Result<JoinResult> run = TryRunHashJoin(pre.r, pre.s, config);
  TJ_RETURN_IF_ERROR(run.status());
  JoinResult result = std::move(run).value();
  MergeResult(pre, &result);
  return result;
}

Result<JoinResult> TryRunFilteredTrackJoin(const PartitionedTable& r,
                                           const PartitionedTable& s,
                                           const JoinConfig& config,
                                           const SemiJoinConfig& semi,
                                           TrackJoinVersion version,
                                           Direction direction) {
  TJ_ASSIGN_OR_RETURN(FilteredInputs pre, ExchangeFiltersAndPrune(r, s, semi));
  Result<JoinResult> run = TryRunTrackJoin(pre.r, pre.s, config, version,
                                           direction);
  TJ_RETURN_IF_ERROR(run.status());
  JoinResult result = std::move(run).value();
  MergeResult(pre, &result);
  return result;
}

}  // namespace tj
