#include "encoding/node_group.h"

#include <algorithm>

#include "common/flat_table.h"
#include "encoding/varint.h"

namespace tj {

void NodeGroupEncode(std::vector<KeyNodePair> pairs, uint32_t key_bytes,
                     ByteBuffer* out) {
  // Flat table for grouping; the wire format orders groups by node, so emit
  // over an explicitly sorted node list (byte-identical to the former
  // ordered-map implementation).
  FlatMap<std::vector<uint64_t>> groups;
  for (const auto& p : pairs) groups[p.node].push_back(p.key);
  std::vector<uint32_t> nodes;
  nodes.reserve(groups.size());
  groups.ForEach([&](uint64_t node, const std::vector<uint64_t>&) {
    nodes.push_back(static_cast<uint32_t>(node));
  });
  std::sort(nodes.begin(), nodes.end());
  EncodeLeb128(groups.size(), out);
  ByteWriter writer(out);
  for (uint32_t node : nodes) {
    std::vector<uint64_t>& keys = *groups.Find(node);
    std::sort(keys.begin(), keys.end());
    EncodeLeb128(node, out);
    EncodeLeb128(keys.size(), out);
    for (uint64_t k : keys) writer.PutUint(k, key_bytes);
  }
}

Status TryNodeGroupDecode(ByteReader* in, uint32_t key_bytes,
                          std::vector<KeyNodePair>* out) {
  out->clear();
  uint64_t num_groups = 0;
  TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &num_groups));
  for (uint64_t g = 0; g < num_groups; ++g) {
    uint64_t node = 0;
    uint64_t count = 0;
    TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &node));
    TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &count));
    if (node > ~0u) return Status::Corruption("node-group label overflows");
    if (count > in->remaining() / key_bytes) {
      return Status::Corruption("node-group count exceeds payload");
    }
    for (uint64_t i = 0; i < count; ++i) {
      out->push_back(
          KeyNodePair{in->GetUint(key_bytes), static_cast<uint32_t>(node)});
    }
  }
  if (!in->Done()) return Status::Corruption("trailing bytes in node groups");
  return Status::OK();
}

uint64_t NodeGroupEncodedSize(const std::vector<KeyNodePair>& pairs,
                              uint32_t key_bytes) {
  // The size is a sum over groups, so iteration order is irrelevant here.
  FlatMap<uint64_t> counts;
  for (const auto& p : pairs) ++counts[p.node];
  uint64_t bytes = Leb128Size(counts.size());
  counts.ForEach([&](uint64_t node, const uint64_t& count) {
    bytes += Leb128Size(node) + Leb128Size(count) + count * key_bytes;
  });
  return bytes;
}

}  // namespace tj
