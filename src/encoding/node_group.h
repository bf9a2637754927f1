// Node-grouped location messages (paper Section 2.4, last paragraph).
//
// Track join's schedule messages are logically <key, node> pairs. Grouping
// them by node lets the sender emit each node label once followed by all
// keys destined for it: "we avoid sending the node part in messages
// containing key and node pairs by sending many keys with a single node
// label after partitioning by node."
#ifndef TJ_ENCODING_NODE_GROUP_H_
#define TJ_ENCODING_NODE_GROUP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace tj {

/// A location message: join key plus the node it refers to.
struct KeyNodePair {
  uint64_t key;
  uint32_t node;

  bool operator==(const KeyNodePair&) const = default;
};

/// Encodes pairs grouped by node:
///   <num_groups : LEB128> { <node : LEB128> <count : LEB128>
///                           <keys : count × key_bytes> }*
/// Pairs are reordered (grouped by node, keys sorted within a group).
void NodeGroupEncode(std::vector<KeyNodePair> pairs, uint32_t key_bytes,
                     ByteBuffer* out);

/// Decodes a stream produced by NodeGroupEncode. Truncated headers, group
/// counts that exceed the remaining bytes and trailing bytes return
/// Status::Corruption (and never abort or over-reserve).
Status TryNodeGroupDecode(ByteReader* in, uint32_t key_bytes,
                          std::vector<KeyNodePair>* out);

}  // namespace tj

#endif  // TJ_ENCODING_NODE_GROUP_H_
