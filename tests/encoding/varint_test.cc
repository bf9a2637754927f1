#include "encoding/varint.h"

#include <gtest/gtest.h>

#include <vector>

namespace tj {
namespace {

/// Decodes one value, failing the test on a Corruption status.
uint64_t Leb128(ByteReader* reader) {
  uint64_t v = 0;
  Status s = TryDecodeLeb128(reader, &v);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return v;
}
uint64_t Base100(ByteReader* reader) {
  uint64_t v = 0;
  Status s = TryDecodeBase100(reader, &v);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return v;
}

const std::vector<uint64_t> kSamples = {
    0,   1,   99,  100,  127,  128,   255,        256,
    9999, 10000, 16383, 16384, 1234567890ULL, ~0ULL, (1ULL << 32), 42};

TEST(Leb128Test, RoundTrip) {
  ByteBuffer buf;
  for (uint64_t v : kSamples) EncodeLeb128(v, &buf);
  ByteReader reader(buf);
  for (uint64_t v : kSamples) EXPECT_EQ(Leb128(&reader), v);
  EXPECT_TRUE(reader.Done());
}

TEST(Leb128Test, SizeMatchesEncoding) {
  for (uint64_t v : kSamples) {
    ByteBuffer buf;
    EncodeLeb128(v, &buf);
    EXPECT_EQ(buf.size(), Leb128Size(v)) << v;
  }
}

TEST(Leb128Test, KnownSizes) {
  EXPECT_EQ(Leb128Size(0), 1u);
  EXPECT_EQ(Leb128Size(127), 1u);
  EXPECT_EQ(Leb128Size(128), 2u);
  EXPECT_EQ(Leb128Size(16383), 2u);
  EXPECT_EQ(Leb128Size(16384), 3u);
  EXPECT_EQ(Leb128Size(~0ULL), 10u);
}

TEST(Base100Test, RoundTrip) {
  ByteBuffer buf;
  for (uint64_t v : kSamples) EncodeBase100(v, &buf);
  ByteReader reader(buf);
  for (uint64_t v : kSamples) EXPECT_EQ(Base100(&reader), v);
  EXPECT_TRUE(reader.Done());
}

TEST(Base100Test, SizeMatchesEncoding) {
  for (uint64_t v : kSamples) {
    ByteBuffer buf;
    EncodeBase100(v, &buf);
    EXPECT_EQ(buf.size(), Base100Size(v)) << v;
  }
}

TEST(Base100Test, SizeIsDigitPairs) {
  // Base-100: one byte per two decimal digits — the paper's NUMBER widths.
  EXPECT_EQ(Base100Size(0), 1u);
  EXPECT_EQ(Base100Size(99), 1u);
  EXPECT_EQ(Base100Size(100), 2u);
  EXPECT_EQ(Base100Size(9999), 2u);
  EXPECT_EQ(Base100Size(10000), 3u);
  EXPECT_EQ(Base100Size(999999), 3u);
  // A 12-decimal-digit id needs 6 bytes.
  EXPECT_EQ(Base100Size(999999999999ULL), 6u);
}

TEST(Base100Test, ExhaustiveSmallRange) {
  ByteBuffer buf;
  for (uint64_t v = 0; v < 20000; ++v) EncodeBase100(v, &buf);
  ByteReader reader(buf);
  for (uint64_t v = 0; v < 20000; ++v) ASSERT_EQ(Base100(&reader), v);
}

}  // namespace
}  // namespace tj
