#include "filter/bloom.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tj {
namespace {

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter filter(1000, 10);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(k * 7);
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(filter.MayContain(k * 7));
}

TEST(BloomTest, FalsePositiveRateNearTheory) {
  constexpr uint64_t kKeys = 20000;
  BloomFilter filter(kKeys, 10);
  for (uint64_t k = 0; k < kKeys; ++k) filter.Add(k);
  uint64_t fp = 0;
  constexpr uint64_t kProbes = 100000;
  for (uint64_t k = 0; k < kProbes; ++k) {
    fp += filter.MayContain(kKeys + 1000000 + k);
  }
  double rate = static_cast<double>(fp) / kProbes;
  double theory = filter.TheoreticalFpRate(kKeys);
  EXPECT_LT(rate, 0.05);  // ~1% expected at 10 bits/key.
  EXPECT_NEAR(rate, theory, 0.01);
}

TEST(BloomTest, SerializeRoundTrip) {
  BloomFilter filter(500, 12);
  for (uint64_t k = 0; k < 500; ++k) filter.Add(k * 3 + 1);
  ByteBuffer buf;
  filter.Serialize(&buf);
  ByteReader reader(buf);
  Result<BloomFilter> decoded = BloomFilter::TryDeserialize(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const BloomFilter& restored = *decoded;
  EXPECT_TRUE(reader.Done());
  EXPECT_EQ(restored.num_bits(), filter.num_bits());
  EXPECT_EQ(restored.num_hashes(), filter.num_hashes());
  for (uint64_t k = 0; k < 500; ++k) EXPECT_TRUE(restored.MayContain(k * 3 + 1));
  // Behaviour identical on negatives too.
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    uint64_t probe = rng.Next();
    EXPECT_EQ(filter.MayContain(probe), restored.MayContain(probe));
  }
}

TEST(BloomTest, SizeScalesWithBitsPerKey) {
  BloomFilter small(1000, 4), large(1000, 16);
  EXPECT_LT(small.SizeBytes(), large.SizeBytes());
  EXPECT_GE(small.SizeBytes(), 1000u * 4 / 8);
}

TEST(BloomTest, EmptyFilterContainsNothingMostly) {
  BloomFilter filter(100, 10);
  uint64_t hits = 0;
  for (uint64_t k = 0; k < 1000; ++k) hits += filter.MayContain(k);
  EXPECT_EQ(hits, 0u);
}

TEST(BloomTest, ExplicitHashCount) {
  BloomFilter filter(10, 8, 3);
  EXPECT_EQ(filter.num_hashes(), 3u);
}

TEST(BloomTest, TinyExpectedKeysStillWorks) {
  BloomFilter filter(0, 10);
  filter.Add(7);
  EXPECT_TRUE(filter.MayContain(7));
}

}  // namespace
}  // namespace tj
