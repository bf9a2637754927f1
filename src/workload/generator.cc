#include "workload/generator.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace tj {

namespace {

constexpr uint64_t kRSeed = 0x52aabbccULL;  // 'R'
constexpr uint64_t kSSeed = 0x53ddeeffULL;  // 'S'

/// Picks `groups` distinct nodes out of n (groups <= n), uniformly, into
/// the first `groups` entries of `*nodes` (resized to n, reused per key).
std::span<const uint32_t> PickDistinctNodes(uint32_t n, size_t groups,
                                            Rng* rng,
                                            std::vector<uint32_t>* nodes) {
  TJ_CHECK_LE(groups, n);
  nodes->resize(n);
  std::iota(nodes->begin(), nodes->end(), 0);
  // Partial Fisher-Yates: the first `groups` entries are the sample.
  for (size_t i = 0; i < groups; ++i) {
    size_t j = i + static_cast<size_t>(rng->Below(n - i));
    std::swap((*nodes)[i], (*nodes)[j]);
  }
  return std::span<const uint32_t>(*nodes).first(groups);
}

/// Places `multiplicity` copies of `key` according to the pattern and the
/// chosen group nodes, calling place(node, key, copy) for each copy. Empty
/// group nodes place each copy on an independent random node.
template <typename Place>
void PlaceCopies(uint32_t num_nodes, uint64_t key, uint32_t multiplicity,
                 const std::vector<uint32_t>& pattern,
                 std::span<const uint32_t> group_nodes, Rng* rng,
                 Place&& place) {
  if (group_nodes.empty()) {
    for (uint32_t c = 0; c < multiplicity; ++c) {
      place(static_cast<uint32_t>(rng->Below(num_nodes)), key, c);
    }
    return;
  }
  TJ_CHECK_EQ(pattern.size(), group_nodes.size());
  uint32_t copy = 0;
  for (size_t g = 0; g < pattern.size(); ++g) {
    for (uint32_t c = 0; c < pattern[g]; ++c) {
      place(group_nodes[g], key, copy++);
    }
  }
  TJ_CHECK_EQ(copy, multiplicity);
}

std::vector<uint32_t> NormalizePattern(std::vector<uint32_t> pattern,
                                       uint32_t multiplicity) {
  if (pattern.empty()) pattern.push_back(multiplicity);
  uint32_t total = 0;
  for (uint32_t g : pattern) total += g;
  TJ_CHECK_EQ(total, multiplicity) << "pattern must sum to the multiplicity";
  return pattern;
}

/// Walks the workload's placement in generation order, calling
/// place_r(node, key, copy) and place_s(node, key, copy) for every row.
/// Every random draw happens here, from a fresh Rng(spec.seed), so two
/// walks of one spec visit the same rows in the same order.
template <typename PlaceR, typename PlaceS>
void WalkPlacement(const WorkloadSpec& spec,
                   const std::vector<uint32_t>& r_pattern,
                   const std::vector<uint32_t>& s_pattern, PlaceR&& place_r,
                   PlaceS&& place_s) {
  Rng rng(spec.seed);
  const uint32_t n = spec.num_nodes;
  std::vector<uint32_t> r_pick, s_pick;
  for (uint64_t k = 0; k < spec.matched_keys; ++k) {
    const uint64_t key = 1 + k;
    std::span<const uint32_t> r_nodes, s_nodes;
    Collocation collocation = spec.collocation;
    if (collocation != Collocation::kRandom &&
        !rng.Bernoulli(spec.collocated_fraction)) {
      collocation = Collocation::kRandom;
    }
    switch (collocation) {
      case Collocation::kRandom:
        break;  // Empty node lists: per-copy random placement.
      case Collocation::kIntra:
        r_nodes = PickDistinctNodes(n, r_pattern.size(), &rng, &r_pick);
        s_nodes = PickDistinctNodes(n, s_pattern.size(), &rng, &s_pick);
        break;
      case Collocation::kInter: {
        // S groups reuse R's nodes first, then fresh distinct ones.
        size_t groups = std::max(r_pattern.size(), s_pattern.size());
        std::span<const uint32_t> nodes =
            PickDistinctNodes(n, groups, &rng, &r_pick);
        r_nodes = nodes.first(r_pattern.size());
        s_nodes = nodes.first(s_pattern.size());
        break;
      }
    }
    PlaceCopies(n, key, spec.r_multiplicity, r_pattern, r_nodes, &rng,
                place_r);
    PlaceCopies(n, key, spec.s_multiplicity, s_pattern, s_nodes, &rng,
                place_s);
  }

  // Unmatched keys live in disjoint ranges above the matched ones.
  uint64_t next_key = 1 + spec.matched_keys;
  for (uint64_t i = 0; i < spec.r_unmatched; ++i) {
    place_r(static_cast<uint32_t>(rng.Below(n)), next_key++, 0);
  }
  for (uint64_t i = 0; i < spec.s_unmatched; ++i) {
    place_s(static_cast<uint32_t>(rng.Below(n)), next_key++, 0);
  }
}

}  // namespace

Status ValidateWorkloadSpec(const WorkloadSpec& spec) {
  const std::pair<const char*, uint32_t> positive[] = {
      {"num_nodes", spec.num_nodes},
      {"r_multiplicity", spec.r_multiplicity},
      {"s_multiplicity", spec.s_multiplicity}};
  for (const auto& [field, value] : positive) {
    if (value == 0) {
      return Status::InvalidArgument(std::string(field) + " must be > 0");
    }
  }
  if (spec.collocation == Collocation::kRandom) return Status::OK();
  struct PatternField {
    const char* name;
    const std::vector<uint32_t>& pattern;
    const char* multiplicity_name;
    uint32_t multiplicity;
  };
  const PatternField patterns[] = {
      {"r_pattern", spec.r_pattern, "r_multiplicity", spec.r_multiplicity},
      {"s_pattern", spec.s_pattern, "s_multiplicity", spec.s_multiplicity}};
  for (const PatternField& p : patterns) {
    if (p.pattern.empty()) continue;  // One group of every copy.
    uint64_t total = 0;
    for (uint32_t group : p.pattern) total += group;
    if (total != p.multiplicity) {
      return Status::InvalidArgument(
          std::string(p.name) + " sums to " + std::to_string(total) +
          " but " + p.multiplicity_name + " is " +
          std::to_string(p.multiplicity));
    }
    if (p.pattern.size() > spec.num_nodes) {
      return Status::InvalidArgument(
          std::string(p.name) + " has " + std::to_string(p.pattern.size()) +
          " groups, more than num_nodes=" + std::to_string(spec.num_nodes) +
          " distinct nodes");
    }
  }
  return Status::OK();
}

Workload GenerateWorkload(const WorkloadSpec& spec) {
  TJ_CHECK_GT(spec.num_nodes, 0u);
  TJ_CHECK_GT(spec.r_multiplicity, 0u);
  TJ_CHECK_GT(spec.s_multiplicity, 0u);

  Workload w{PartitionedTable("R", spec.num_nodes, spec.r_payload),
             PartitionedTable("S", spec.num_nodes, spec.s_payload),
             spec.matched_keys * spec.r_multiplicity * spec.s_multiplicity};

  std::vector<uint32_t> r_pattern;
  std::vector<uint32_t> s_pattern;
  if (spec.collocation != Collocation::kRandom) {
    r_pattern = NormalizePattern(spec.r_pattern, spec.r_multiplicity);
    s_pattern = NormalizePattern(spec.s_pattern, spec.s_multiplicity);
    TJ_CHECK_LE(r_pattern.size(), spec.num_nodes);
    TJ_CHECK_LE(s_pattern.size(), spec.num_nodes);
  }

  // Count then fill: the first walk counts each node's rows so every block
  // is reserved once at its exact size; the second repeats the same draws
  // and appends. Payloads draw no random numbers, so only the walk decides
  // placement.
  std::vector<uint64_t> r_rows(spec.num_nodes), s_rows(spec.num_nodes);
  WalkPlacement(
      spec, r_pattern, s_pattern,
      [&](uint32_t node, uint64_t, uint64_t) { ++r_rows[node]; },
      [&](uint32_t node, uint64_t, uint64_t) { ++s_rows[node]; });
  for (uint32_t node = 0; node < spec.num_nodes; ++node) {
    w.r.node(node).Reserve(r_rows[node]);
    w.s.node(node).Reserve(s_rows[node]);
  }

  std::vector<uint8_t> scratch(std::max(spec.r_payload, spec.s_payload));
  auto append_to = [&](PartitionedTable& table, uint64_t table_seed) {
    return [&table, &scratch, table_seed](uint32_t node, uint64_t key,
                                          uint64_t copy) {
      SynthesizePayload(table_seed, key, copy, table.payload_width(),
                        scratch.data());
      table.node(node).Append(key, scratch.data());
    };
  };
  WalkPlacement(spec, r_pattern, s_pattern,
                append_to(w.r, kRSeed ^ spec.seed),
                append_to(w.s, kSSeed ^ spec.seed));
  return w;
}

Result<Workload> TryGenerateZipfWorkload(const ZipfWorkloadSpec& spec) {
  if (spec.num_nodes == 0) {
    return Status::InvalidArgument("zipf workload needs at least one node");
  }
  if (spec.key_domain == 0) {
    return Status::InvalidArgument(
        "zipf workload needs a non-empty key domain (key_domain > 0)");
  }
  Workload w{PartitionedTable("R", spec.num_nodes, spec.r_payload),
             PartitionedTable("S", spec.num_nodes, spec.s_payload), 0};
  Rng rng(spec.seed ^ 0x21bfULL);
  std::vector<uint8_t> scratch;

  // Per-key multiplicities, tracked to compute the exact output size and
  // to give every copy a distinct payload.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> counts;
  counts.reserve(spec.key_domain);

  // Sampling is const, so both tables share one sampler (and its
  // distribution setup) whenever their parameters agree; only distinct
  // thetas pay for a second instance. The shared key domain is fixed.
  const ZipfGenerator r_zipf(spec.key_domain, spec.r_theta);
  const ZipfGenerator s_zipf_distinct =
      spec.s_theta == spec.r_theta
          ? ZipfGenerator(1, 0.0)  // Placeholder; never sampled.
          : ZipfGenerator(spec.key_domain, spec.s_theta);
  const ZipfGenerator& s_zipf =
      spec.s_theta == spec.r_theta ? r_zipf : s_zipf_distinct;

  scratch.resize(std::max(spec.r_payload, spec.s_payload));
  for (uint64_t i = 0; i < spec.r_rows; ++i) {
    uint64_t key = 1 + r_zipf.Next(&rng);
    uint64_t copy = counts[key].first++;
    SynthesizePayload(kRSeed ^ spec.seed, key, copy, spec.r_payload,
                      scratch.data());
    uint32_t node = static_cast<uint32_t>(rng.Below(spec.num_nodes));
    w.r.node(node).Append(key, scratch.data());
  }
  for (uint64_t i = 0; i < spec.s_rows; ++i) {
    uint64_t key = 1 + s_zipf.Next(&rng);
    uint64_t copy = counts[key].second++;
    SynthesizePayload(kSSeed ^ spec.seed, key, copy, spec.s_payload,
                      scratch.data());
    uint32_t node = static_cast<uint32_t>(rng.Below(spec.num_nodes));
    w.s.node(node).Append(key, scratch.data());
  }
  for (const auto& [key, rs] : counts) {
    // Under extreme skew one key's cartesian product alone can exceed
    // uint64; fail loudly rather than wrap and "verify" a bogus count.
    TJ_RETURN_IF_ERROR(
        AddOutputProduct(key, rs.first, rs.second, &w.expected_output_rows));
  }
  return w;
}

Status AddOutputProduct(uint64_t key, uint64_t r_count, uint64_t s_count,
                        uint64_t* total) {
  uint64_t product = 0;
  uint64_t sum = 0;
  if (__builtin_mul_overflow(r_count, s_count, &product) ||
      __builtin_add_overflow(*total, product, &sum)) {
    return Status::InvalidArgument(
        "zipf workload output cardinality overflows uint64 (key " +
        std::to_string(key) + ": " + std::to_string(r_count) + " x " +
        std::to_string(s_count) + " rows)");
  }
  *total = sum;
  return Status::OK();
}

void ShuffleTable(PartitionedTable* table, uint64_t seed) {
  Rng rng(seed ^ 0x5f0f5f0fULL);
  const uint32_t n = table->num_nodes();
  PartitionedTable shuffled(table->name(), n, table->payload_width());
  for (uint32_t node = 0; node < n; ++node) {
    const TupleBlock& block = table->node(node);
    for (uint64_t row = 0; row < block.size(); ++row) {
      uint32_t dst = static_cast<uint32_t>(rng.Below(n));
      shuffled.node(dst).AppendFrom(block, row);
    }
  }
  *table = std::move(shuffled);
}

ReplicatedWorkload ReplicateWorkload(const Workload& workload,
                                     uint32_t replication) {
  return ReplicatedWorkload{ReplicatedTable(&workload.r, replication),
                            ReplicatedTable(&workload.s, replication)};
}

}  // namespace tj
