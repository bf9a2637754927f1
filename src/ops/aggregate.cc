#include "ops/aggregate.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "net/fabric.h"

namespace tj {

namespace {

uint64_t ReadField(const TupleBlock& block, uint64_t row, const FieldRef& f) {
  if (f.use_key) return block.Key(row);
  TJ_CHECK_LE(f.offset + f.bytes, block.payload_width());
  TJ_CHECK_LE(f.bytes, 8u);
  uint64_t v = 0;
  const uint8_t* p = block.Payload(row) + f.offset;
  for (uint32_t i = 0; i < f.bytes; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

struct Partial {
  uint64_t sum = 0;
  uint64_t count = 0;
};

/// Serialized partial: group (group_bytes) + sum (sum_bytes) + count (LEB-
/// free fixed 8 bytes keeps the wire format flat for accounting).
constexpr uint32_t kCountBytes = 8;

}  // namespace

Result<AggregateResult> TryRunDistributedAggregate(
    const PartitionedTable& table, const AggregateConfig& config) {
  const uint32_t n = table.num_nodes();
  const uint32_t payload_width = config.sum_bytes + kCountBytes;
  AggregateResult result{PartitionedTable("agg", n, payload_width),
                         TrafficMatrix(n),
                         {},
                         0,
                         table.TotalRows()};

  Fabric fabric(n);
  std::vector<std::unordered_map<uint64_t, Partial>> finals(n);

  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable(
      config.pre_aggregate ? "local pre-aggregate & shuffle" : "shuffle rows",
      [&](uint32_t node) {
    const TupleBlock& block = table.node(node);
    std::vector<ByteBuffer> out(n);
    std::vector<ByteWriter> writers;
    writers.reserve(n);
    for (uint32_t d = 0; d < n; ++d) writers.emplace_back(&out[d]);

    if (config.pre_aggregate) {
      std::unordered_map<uint64_t, Partial> partials;
      partials.reserve(block.size());
      for (uint64_t row = 0; row < block.size(); ++row) {
        Partial& p = partials[ReadField(block, row, config.group_by)];
        p.sum += ReadField(block, row, config.value);
        p.count += 1;
      }
      // Hash partitioning spreads the groups near-uniformly; one reserve
      // per destination instead of a growth chain per stream.
      const uint32_t record_bytes =
          config.group_bytes + config.sum_bytes + kCountBytes;
      if (partials.size() >= static_cast<size_t>(n)) {
        for (uint32_t d = 0; d < n; ++d) {
          out[d].reserve(partials.size() / n * record_bytes + record_bytes);
        }
      }
      for (const auto& [group, partial] : partials) {
        uint32_t dst = HashPartition(group, n);
        writers[dst].PutUint(group, config.group_bytes);
        writers[dst].PutUint(partial.sum, config.sum_bytes);
        writers[dst].PutUint(partial.count, kCountBytes);
      }
    } else {
      for (uint64_t row = 0; row < block.size(); ++row) {
        uint64_t group = ReadField(block, row, config.group_by);
        uint32_t dst = HashPartition(group, n);
        writers[dst].PutUint(group, config.group_bytes);
        writers[dst].PutUint(ReadField(block, row, config.value),
                             config.sum_bytes);
        writers[dst].PutUint(1, kCountBytes);
      }
    }
    for (uint32_t dst = 0; dst < n; ++dst) {
      if (!out[dst].empty()) {
        // Partial aggregates are key-ish metadata, not tuples: account them
        // under the tracking class.
        fabric.Send(node, dst, MessageType::kTrackR, std::move(out[dst]));
      }
    }
    return Status::OK();
  }));

  TJ_RETURN_IF_ERROR(fabric.RunPhaseReliable("final aggregate",
                                             [&](uint32_t node) {
    auto msgs = fabric.TakeInbox(node, MessageType::kTrackR);
    // Size the final table from the incoming bytes: every fixed-width wire
    // record is at most one new group, so this bound is exact for disjoint
    // senders and avoids every mid-phase rehash (S2 reserve audit).
    const uint32_t record_bytes =
        config.group_bytes + config.sum_bytes + kCountBytes;
    uint64_t incoming_bytes = 0;
    for (const auto& msg : msgs) incoming_bytes += msg.data.size();
    finals[node].reserve(incoming_bytes / record_bytes);
    for (const auto& msg : msgs) {
      ByteReader reader(msg.data);
      while (!reader.Done()) {
        uint64_t group = reader.GetUint(config.group_bytes);
        uint64_t sum = reader.GetUint(config.sum_bytes);
        uint64_t count = reader.GetUint(kCountBytes);
        Partial& p = finals[node][group];
        p.sum += sum;
        p.count += count;
      }
    }
    // Deterministic output order: sorted by group.
    std::vector<std::pair<uint64_t, Partial>> sorted(finals[node].begin(),
                                                     finals[node].end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<uint8_t> payload(payload_width);
    for (const auto& [group, partial] : sorted) {
      for (uint32_t i = 0; i < config.sum_bytes; ++i) {
        payload[i] = static_cast<uint8_t>(partial.sum >> (8 * i));
      }
      for (uint32_t i = 0; i < kCountBytes; ++i) {
        payload[config.sum_bytes + i] =
            static_cast<uint8_t>(partial.count >> (8 * i));
      }
      result.output.node(node).Append(group, payload.data());
    }
    return Status::OK();
  }));

  result.traffic = fabric.traffic();
  result.phase_seconds = PhaseSeconds(fabric.steps());
  result.groups = result.output.TotalRows();
  return result;
}

}  // namespace tj
