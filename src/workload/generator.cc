#include "workload/generator.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace tj {

namespace {

constexpr uint64_t kRSeed = 0x52aabbccULL;  // 'R'
constexpr uint64_t kSSeed = 0x53ddeeffULL;  // 'S'

/// Picks `groups` distinct nodes out of n (groups <= n), uniformly.
std::vector<uint32_t> PickDistinctNodes(uint32_t n, size_t groups, Rng* rng) {
  TJ_CHECK_LE(groups, n);
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  // Partial Fisher-Yates: the first `groups` entries are the sample.
  for (size_t i = 0; i < groups; ++i) {
    size_t j = i + static_cast<size_t>(rng->Below(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(groups);
  return all;
}

/// Appends `multiplicity` copies of `key` to `table` according to the
/// pattern and the chosen group nodes.
void PlaceCopies(PartitionedTable* table, uint64_t table_seed, uint64_t key,
                 uint32_t multiplicity, const std::vector<uint32_t>& pattern,
                 const std::vector<uint32_t>& group_nodes, Rng* rng,
                 std::vector<uint8_t>* scratch) {
  scratch->resize(table->payload_width());
  uint64_t copy = 0;
  if (group_nodes.empty()) {
    // Random placement: each copy independent.
    for (uint32_t c = 0; c < multiplicity; ++c) {
      uint32_t node = static_cast<uint32_t>(rng->Below(table->num_nodes()));
      SynthesizePayload(table_seed, key, copy++, table->payload_width(),
                        scratch->data());
      table->node(node).Append(key, scratch->data());
    }
    return;
  }
  TJ_CHECK_EQ(pattern.size(), group_nodes.size());
  for (size_t g = 0; g < pattern.size(); ++g) {
    for (uint32_t c = 0; c < pattern[g]; ++c) {
      SynthesizePayload(table_seed, key, copy++, table->payload_width(),
                        scratch->data());
      table->node(group_nodes[g]).Append(key, scratch->data());
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

}  // namespace

Workload GenerateWorkload(const WorkloadSpec& spec) {
  TJ_CHECK_GT(spec.num_nodes, 0u);
  TJ_CHECK_GT(spec.r_multiplicity, 0u);
  TJ_CHECK_GT(spec.s_multiplicity, 0u);

  Workload w{PartitionedTable("R", spec.num_nodes, spec.r_payload),
             PartitionedTable("S", spec.num_nodes, spec.s_payload),
             spec.matched_keys * spec.r_multiplicity * spec.s_multiplicity};

  Rng rng(spec.seed);
  std::vector<uint8_t> scratch;

  std::vector<uint32_t> r_pattern;
  std::vector<uint32_t> s_pattern;
  if (spec.collocation != Collocation::kRandom) {
    r_pattern = NormalizePattern(spec.r_pattern, spec.r_multiplicity);
    s_pattern = NormalizePattern(spec.s_pattern, spec.s_multiplicity);
    TJ_CHECK_LE(r_pattern.size(), spec.num_nodes);
    TJ_CHECK_LE(s_pattern.size(), spec.num_nodes);
  }

  for (uint64_t k = 0; k < spec.matched_keys; ++k) {
    const uint64_t key = 1 + k;
    std::vector<uint32_t> r_nodes, s_nodes;
    Collocation collocation = spec.collocation;
    if (collocation != Collocation::kRandom &&
        !rng.Bernoulli(spec.collocated_fraction)) {
      collocation = Collocation::kRandom;
    }
    switch (collocation) {
      case Collocation::kRandom:
        break;  // Empty node lists: per-copy random placement.
      case Collocation::kIntra:
        r_nodes = PickDistinctNodes(spec.num_nodes, r_pattern.size(), &rng);
        s_nodes = PickDistinctNodes(spec.num_nodes, s_pattern.size(), &rng);
        break;
      case Collocation::kInter: {
        // S groups reuse R's nodes first, then fresh distinct ones.
        size_t groups = std::max(r_pattern.size(), s_pattern.size());
        std::vector<uint32_t> nodes =
            PickDistinctNodes(spec.num_nodes, groups, &rng);
        r_nodes.assign(nodes.begin(), nodes.begin() + r_pattern.size());
        s_nodes.assign(nodes.begin(), nodes.begin() + s_pattern.size());
        break;
      }
    }
    PlaceCopies(&w.r, kRSeed ^ spec.seed, key, spec.r_multiplicity, r_pattern,
                r_nodes, &rng, &scratch);
    PlaceCopies(&w.s, kSSeed ^ spec.seed, key, spec.s_multiplicity, s_pattern,
                s_nodes, &rng, &scratch);
  }

  // Unmatched keys live in disjoint ranges above the matched ones.
  uint64_t next_key = 1 + spec.matched_keys;
  for (uint64_t i = 0; i < spec.r_unmatched; ++i) {
    uint64_t key = next_key++;
    uint32_t node = static_cast<uint32_t>(rng.Below(spec.num_nodes));
    scratch.resize(w.r.payload_width());
    SynthesizePayload(kRSeed ^ spec.seed, key, 0, w.r.payload_width(),
                      scratch.data());
    w.r.node(node).Append(key, scratch.data());
  }
  for (uint64_t i = 0; i < spec.s_unmatched; ++i) {
    uint64_t key = next_key++;
    uint32_t node = static_cast<uint32_t>(rng.Below(spec.num_nodes));
    scratch.resize(w.s.payload_width());
    SynthesizePayload(kSSeed ^ spec.seed, key, 0, w.s.payload_width(),
                      scratch.data());
    w.s.node(node).Append(key, scratch.data());
  }
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
