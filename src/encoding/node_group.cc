#include "encoding/node_group.h"

#include <algorithm>

#include "encoding/varint.h"

namespace tj {

void NodeGroupEncode(std::vector<KeyNodePair> pairs, uint32_t key_bytes,
                     ByteBuffer* out) {
  // Sorted by (node, key), each node's pairs are one run: its group.
  std::sort(pairs.begin(), pairs.end(),
            [](const KeyNodePair& a, const KeyNodePair& b) {
              return a.node != b.node ? a.node < b.node : a.key < b.key;
            });
  uint64_t num_groups = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    num_groups += i == 0 || pairs[i].node != pairs[i - 1].node;
  }
  EncodeLeb128(num_groups, out);
  ByteWriter writer(out);
  for (size_t first = 0; first < pairs.size();) {
    size_t last = first + 1;
    while (last < pairs.size() && pairs[last].node == pairs[first].node) {
      ++last;
    }
    EncodeLeb128(pairs[first].node, out);
    EncodeLeb128(last - first, out);
    for (; first < last; ++first) writer.PutUint(pairs[first].key, key_bytes);
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

}  // namespace tj
