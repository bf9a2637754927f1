#include "encoding/prefix_group.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace tj {
namespace {

/// Decodes one stream, failing the test on a Corruption status.
std::vector<uint64_t> Decode(ByteReader* reader, uint32_t width_bits,
                             uint32_t prefix_bits) {
  std::vector<uint64_t> values;
  Status s = TryPrefixGroupDecode(reader, width_bits, prefix_bits, &values);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return values;
}

TEST(PrefixGroupTest, RoundTrip) {
  std::vector<uint64_t> values = {0, 1, 255, 256, 300, 70000, 70001};
  for (uint32_t prefix : {0u, 4u, 8u, 16u}) {
    ByteBuffer buf;
    PrefixGroupEncode(values, 32, prefix, &buf);
    ByteReader reader(buf);
    std::vector<uint64_t> decoded = Decode(&reader, 32, prefix);
    std::vector<uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(decoded, sorted) << "prefix=" << prefix;
    EXPECT_TRUE(reader.Done());
  }
}

TEST(PrefixGroupTest, SizeMatchesEncoding) {
  Rng rng(3);
  std::vector<uint64_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Below(1 << 24));
  for (uint32_t prefix : {0u, 8u, 12u, 23u}) {
    ByteBuffer buf;
    PrefixGroupEncode(values, 24, prefix, &buf);
    EXPECT_EQ(buf.size(), PrefixGroupEncodedSize(values, 24, prefix));
  }
}

TEST(PrefixGroupTest, SharedPrefixesShrinkOutput) {
  // Many values under few prefixes: grouping should beat flat packing.
  std::vector<uint64_t> values;
  Rng rng(5);
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 1000; ++i) {
      values.push_back((static_cast<uint64_t>(p) << 24) | rng.Below(1 << 24));
    }
  }
  uint64_t flat = PrefixGroupEncodedSize(values, 32, 0);
  uint64_t grouped = PrefixGroupEncodedSize(values, 32, 8);
  EXPECT_LT(grouped, flat);
}

TEST(PrefixGroupTest, BestPrefixIsNoWorseThanEndpoints) {
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 3000; ++i) values.push_back(rng.Below(1 << 20));
  uint32_t best = BestPrefixBits(values, 20);
  uint64_t best_size = PrefixGroupEncodedSize(values, 20, best);
  for (uint32_t p = 0; p < 20; ++p) {
    EXPECT_LE(best_size, PrefixGroupEncodedSize(values, 20, p));
  }
}

TEST(PrefixGroupTest, DuplicatesSurvive) {
  std::vector<uint64_t> values = {7, 7, 7, 7, 8, 8};
  ByteBuffer buf;
  PrefixGroupEncode(values, 8, 4, &buf);
  ByteReader reader(buf);
  EXPECT_EQ(Decode(&reader, 8, 4), values);
}

TEST(PrefixGroupTest, EmptyInput) {
  ByteBuffer buf;
  PrefixGroupEncode({}, 16, 8, &buf);
  ByteReader reader(buf);
  EXPECT_TRUE(Decode(&reader, 16, 8).empty());
}

TEST(PrefixGroupTest, SixtyFourBitWidth) {
  Rng rng(9);
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.Next());
  ByteBuffer buf;
  PrefixGroupEncode(values, 64, 16, &buf);
  ByteReader reader(buf);
  std::vector<uint64_t> decoded = Decode(&reader, 64, 16);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(decoded, values);
}

}  // namespace
}  // namespace tj
