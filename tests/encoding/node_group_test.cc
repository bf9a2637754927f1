#include "encoding/node_group.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace tj {
namespace {

/// Decodes one stream, failing the test on a Corruption status.
std::vector<KeyNodePair> Decode(ByteReader* reader, uint32_t key_bytes) {
  std::vector<KeyNodePair> pairs;
  Status s = TryNodeGroupDecode(reader, key_bytes, &pairs);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return pairs;
}


std::vector<KeyNodePair> Sorted(std::vector<KeyNodePair> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const KeyNodePair& a, const KeyNodePair& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.key < b.key;
            });
  return pairs;
}

TEST(NodeGroupTest, RoundTrip) {
  std::vector<KeyNodePair> pairs = {
      {100, 2}, {5, 0}, {7, 2}, {100, 0}, {3, 1}};
  ByteBuffer buf;
  NodeGroupEncode(pairs, /*key_bytes=*/4, &buf);
  ByteReader reader(buf);
  auto decoded = Decode(&reader, 4);
  EXPECT_EQ(Sorted(decoded), Sorted(pairs));
  EXPECT_TRUE(reader.Done());
}

TEST(NodeGroupTest, SizeMatchesEncoding) {
  Rng rng(3);
  std::vector<KeyNodePair> pairs;
  for (int i = 0; i < 1000; ++i) {
    pairs.push_back({rng.Below(1 << 20), static_cast<uint32_t>(rng.Below(8))});
  }
  ByteBuffer buf;
  NodeGroupEncode(pairs, 3, &buf);
  EXPECT_EQ(buf.size(), NodeGroupEncodedSize(pairs, 3));
}

TEST(NodeGroupTest, GroupingBeatsUngroupedForManyKeysPerNode) {
  std::vector<KeyNodePair> pairs;
  for (uint64_t k = 0; k < 500; ++k) pairs.push_back({k, 3});
  // Grouped: ~1 node label total. Ungrouped: 1 node byte per pair.
  EXPECT_LT(NodeGroupEncodedSize(pairs, 4), UngroupedSize(pairs, 4));
}

TEST(NodeGroupTest, EmptyInput) {
  ByteBuffer buf;
  NodeGroupEncode({}, 4, &buf);
  ByteReader reader(buf);
  EXPECT_TRUE(Decode(&reader, 4).empty());
}

TEST(NodeGroupTest, SingleNodeManyKeys) {
  std::vector<KeyNodePair> pairs;
  for (uint64_t k = 10; k < 20; ++k) pairs.push_back({k, 7});
  ByteBuffer buf;
  NodeGroupEncode(pairs, 2, &buf);
  ByteReader reader(buf);
  auto decoded = Decode(&reader, 2);
  ASSERT_EQ(decoded.size(), 10u);
  for (const auto& p : decoded) EXPECT_EQ(p.node, 7u);
}

}  // namespace
}  // namespace tj
