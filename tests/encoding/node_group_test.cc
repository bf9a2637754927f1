#include "encoding/node_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "encoding/varint.h"

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

TEST(NodeGroupTest, SizeIsGroupHeadersPlusKeys) {
  Rng rng(3);
  std::vector<KeyNodePair> pairs;
  std::map<uint32_t, uint64_t> group_sizes;
  for (int i = 0; i < 1000; ++i) {
    pairs.push_back({rng.Below(1 << 20), static_cast<uint32_t>(rng.Below(8))});
    ++group_sizes[pairs.back().node];
  }
  uint64_t expected = Leb128Size(group_sizes.size());
  for (const auto& [node, count] : group_sizes) {
    expected += Leb128Size(node) + Leb128Size(count) + count * 3;
  }
  ByteBuffer buf;
  NodeGroupEncode(pairs, 3, &buf);
  EXPECT_EQ(buf.size(), expected);
}

TEST(NodeGroupTest, GroupingBeatsUngroupedForManyKeysPerNode) {
  std::vector<KeyNodePair> pairs;
  for (uint64_t k = 0; k < 500; ++k) pairs.push_back({k, 3});
  ByteBuffer buf;
  NodeGroupEncode(pairs, 4, &buf);
  // Grouped: ~1 node label total. Ungrouped: 1 node byte per pair.
  EXPECT_LT(buf.size(), pairs.size() * (4 + 1));
}

// Pins the wire bytes: groups in node order, each group's keys sorted with
// duplicates kept, whatever order the pairs come in.
TEST(NodeGroupTest, GoldenBytes) {
  const std::vector<KeyNodePair> pairs = {
      {0x0A0B0C, 5}, {7, 200},   {0x0A0B0C, 5}, {300, 0},
      {2, 200},      {7, 5},     {0x0A0B0C, 0}};
  ByteBuffer buf;
  NodeGroupEncode(pairs, /*key_bytes=*/3, &buf);
  const ByteBuffer golden = {
      0x03,                                      // three groups
      0x00, 0x02, 0x2C, 0x01, 0x00, 0x0C, 0x0B, 0x0A,  // node 0: 300, 0x0A0B0C
      0x05, 0x03, 0x07, 0x00, 0x00, 0x0C, 0x0B, 0x0A,  // node 5: 7, 0x0A0B0C,
      0x0C, 0x0B, 0x0A,                                //   0x0A0B0C
      0xC8, 0x01, 0x02, 0x02, 0x00, 0x00, 0x07, 0x00, 0x00};  // node 200: 2, 7
  EXPECT_EQ(buf, golden);
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
