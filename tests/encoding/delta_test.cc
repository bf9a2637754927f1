#include "encoding/delta.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tj {
namespace {

/// Decodes one stream, failing the test on a Corruption status.
std::vector<uint64_t> Decode(ByteReader* reader) {
  std::vector<uint64_t> values;
  Status s = TryDeltaDecode(reader, &values);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return values;
}

TEST(DeltaTest, RoundTripSorted) {
  std::vector<uint64_t> values = {1, 5, 5, 100, 1000000, 1000001};
  ByteBuffer buf;
  EXPECT_EQ(DeltaEncode(values, /*presorted=*/true, &buf), values.size());
  ByteReader reader(buf);
  EXPECT_EQ(Decode(&reader), values);
  EXPECT_TRUE(reader.Done());
}

TEST(DeltaTest, UnsortedInputComesBackSorted) {
  std::vector<uint64_t> values = {9, 1, 4, 4, 2};
  ByteBuffer buf;
  DeltaEncode(values, /*presorted=*/false, &buf);
  ByteReader reader(buf);
  EXPECT_EQ(Decode(&reader), (std::vector<uint64_t>{1, 2, 4, 4, 9}));
}

TEST(DeltaTest, EmptyStream) {
  ByteBuffer buf;
  DeltaEncode({}, true, &buf);
  ByteReader reader(buf);
  EXPECT_TRUE(Decode(&reader).empty());
}

TEST(DeltaTest, SizeMatchesEncoding) {
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.Below(1 << 20));
  ByteBuffer buf;
  DeltaEncode(values, false, &buf);
  EXPECT_EQ(buf.size(), DeltaEncodedSize(values, false));
}

TEST(DeltaTest, DenseKeysCompressWell) {
  // Dense sorted keys have gaps of 1: one byte each, vs 4+ raw bytes.
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 10000; ++i) values.push_back(1000000000 + i);
  uint64_t size = DeltaEncodedSize(values, true);
  EXPECT_LT(size, 10000 + 16u);       // ~1 byte per key plus the header.
  EXPECT_LT(size, 4u * 10000 / 3);    // Far below 4-byte fixed keys.
}

TEST(DeltaTest, RandomRoundTrip) {
  Rng rng(11);
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Next() >> rng.Below(50));
  ByteBuffer buf;
  DeltaEncode(values, false, &buf);
  ByteReader reader(buf);
  std::vector<uint64_t> decoded = Decode(&reader);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(decoded, values);
}

}  // namespace
}  // namespace tj
