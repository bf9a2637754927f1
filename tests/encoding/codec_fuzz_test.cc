// Randomized round-trip fuzzing of every wire codec, parameterized over
// seeds and value distributions. Any byte-level regression in a codec
// breaks traffic accounting silently, so these run wide.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bit_util.h"
#include "common/rng.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/node_group.h"
#include "encoding/prefix_group.h"
#include "encoding/varint.h"
#include "filter/bloom.h"

namespace tj {
namespace {

class CodecFuzzTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  // Distribution 0: dense small; 1: full 64-bit; 2: mixed magnitudes;
  // 3: heavy duplicates.
  std::vector<uint64_t> MakeValues(size_t count) {
    auto [seed, dist] = GetParam();
    Rng rng(seed * 977 + dist);
    std::vector<uint64_t> values(count);
    for (auto& v : values) {
      switch (dist) {
        case 0:
          v = rng.Below(1 << 16);
          break;
        case 1:
          v = rng.Next();
          break;
        case 2:
          v = rng.Next() >> rng.Below(60);
          break;
        default:
          v = rng.Below(50);
          break;
      }
    }
    return values;
  }
};

TEST_P(CodecFuzzTest, Leb128) {
  auto values = MakeValues(2000);
  ByteBuffer buf;
  uint64_t expected_size = 0;
  for (uint64_t v : values) {
    expected_size += Leb128Size(v);
    EncodeLeb128(v, &buf);
  }
  EXPECT_EQ(buf.size(), expected_size);
  ByteReader reader(buf);
  for (uint64_t v : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(TryDecodeLeb128(&reader, &decoded).ok());
    ASSERT_EQ(decoded, v);
  }
  EXPECT_TRUE(reader.Done());
}

TEST_P(CodecFuzzTest, Base100) {
  auto values = MakeValues(2000);
  ByteBuffer buf;
  for (uint64_t v : values) EncodeBase100(v, &buf);
  ByteReader reader(buf);
  for (uint64_t v : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(TryDecodeBase100(&reader, &decoded).ok());
    ASSERT_EQ(decoded, v);
  }
}

TEST_P(CodecFuzzTest, BitPackAtValueWidth) {
  auto values = MakeValues(1500);
  uint64_t max_value = 1;
  for (uint64_t v : values) max_value = std::max(max_value, v);
  uint32_t bits = BitWidth(max_value);
  ByteBuffer buf;
  {
    BitPacker packer(&buf);
    for (uint64_t v : values) packer.Put(v, bits);
  }
  BitUnpacker unpacker(buf);
  for (uint64_t v : values) ASSERT_EQ(unpacker.Get(bits), v);
}

TEST_P(CodecFuzzTest, Delta) {
  auto values = MakeValues(1500);
  ByteBuffer buf;
  DeltaEncode(values, /*presorted=*/false, &buf);
  EXPECT_EQ(buf.size(), DeltaEncodedSize(values, false));
  ByteReader reader(buf);
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(TryDeltaDecode(&reader, &decoded).ok());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(decoded, values);
}

TEST_P(CodecFuzzTest, PrefixGroup) {
  auto values = MakeValues(1200);
  uint64_t max_value = 1;
  for (uint64_t v : values) max_value = std::max(max_value, v);
  uint32_t width = BitWidth(max_value);
  for (uint32_t prefix : {0u, width / 3, width - 1}) {
    if (prefix >= width) continue;
    ByteBuffer buf;
    PrefixGroupEncode(values, width, prefix, &buf);
    EXPECT_EQ(buf.size(), PrefixGroupEncodedSize(values, width, prefix));
    ByteReader reader(buf);
    std::vector<uint64_t> decoded;
    ASSERT_TRUE(TryPrefixGroupDecode(&reader, width, prefix, &decoded).ok());
    std::vector<uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(decoded, sorted) << "prefix=" << prefix;
  }
}

TEST_P(CodecFuzzTest, NodeGroup) {
  auto [seed, dist] = GetParam();
  Rng rng(seed * 31 + dist);
  std::vector<KeyNodePair> pairs;
  for (int i = 0; i < 800; ++i) {
    pairs.push_back(
        {rng.Below(1ULL << 32), static_cast<uint32_t>(rng.Below(16))});
  }
  ByteBuffer buf;
  NodeGroupEncode(pairs, 4, &buf);
  // The keys plus at most 16 group headers: a 1-byte node label and a
  // count of at most 800 (2 LEB128 bytes), after a 1-byte group count.
  EXPECT_GE(buf.size(), 1 + pairs.size() * 4);
  EXPECT_LE(buf.size(), 1 + 16 * 3 + pairs.size() * 4);
  ByteReader reader(buf);
  std::vector<KeyNodePair> decoded;
  ASSERT_TRUE(TryNodeGroupDecode(&reader, 4, &decoded).ok());
  auto canon = [](std::vector<KeyNodePair> p) {
    std::sort(p.begin(), p.end(), [](const KeyNodePair& a, const KeyNodePair& b) {
      return std::tie(a.node, a.key) < std::tie(b.node, b.key);
    });
    return p;
  };
  EXPECT_EQ(canon(decoded), canon(pairs));
}

TEST_P(CodecFuzzTest, Bloom) {
  auto values = MakeValues(700);
  auto [seed, dist] = GetParam();
  BloomFilter filter(values.size(), 4 + 3 * dist, seed % 3);
  for (uint64_t v : values) filter.Add(v);
  ByteBuffer buf;
  filter.Serialize(&buf);
  EXPECT_EQ(buf.size(), Leb128Size(filter.num_bits()) +
                            Leb128Size(filter.num_hashes()) +
                            filter.SizeBytes());
  ByteReader reader(buf);
  Result<BloomFilter> decoded = BloomFilter::TryDeserialize(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(reader.Done());
  EXPECT_EQ(decoded->num_bits(), filter.num_bits());
  EXPECT_EQ(decoded->num_hashes(), filter.num_hashes());
  ByteBuffer again;
  decoded->Serialize(&again);
  EXPECT_EQ(again, buf);
  for (uint64_t v : values) ASSERT_TRUE(decoded->MayContain(v));
}

INSTANTIATE_TEST_SUITE_P(SeedsAndDistributions, CodecFuzzTest,
                         ::testing::Combine(::testing::Range(1, 6),
                                            ::testing::Range(0, 4)));

// Malformed-input hardening: every Try* decoder must reject truncated,
// oversized-count, and bit-flipped payloads with Status::Corruption — never
// read out of bounds, over-allocate, or abort. These are exactly the bytes
// a faulty link can hand a join phase (net/fault_injector.h), so "CHECK and
// die" is not an option on this path.
TEST(CodecMalformedTest, TruncatedLeb128) {
  ByteBuffer buf;
  EncodeLeb128(300, &buf);  // two bytes, continuation bit on the first
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteBuffer trunc;
    trunc.insert(trunc.end(), buf.begin(), buf.begin() + cut);
    ByteReader reader(trunc);
    uint64_t value = 0;
    Status status = TryDecodeLeb128(&reader, &value);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "cut=" << cut;
  }
}

TEST(CodecMalformedTest, OverlongLeb128) {
  // 10 continuation bytes = 70 payload bits: more than a uint64 can hold.
  ByteBuffer buf(11, 0x80);
  buf.back() = 0x01;
  ByteReader reader(buf);
  uint64_t value = 0;
  EXPECT_EQ(TryDecodeLeb128(&reader, &value).code(), StatusCode::kCorruption);
}

TEST(CodecMalformedTest, TruncatedBase100) {
  ByteBuffer buf;
  EncodeBase100(987654321, &buf);
  ByteBuffer trunc;
  trunc.insert(trunc.end(), buf.begin(), buf.end() - 1);
  ByteReader reader(trunc);
  uint64_t value = 0;
  EXPECT_EQ(TryDecodeBase100(&reader, &value).code(), StatusCode::kCorruption);
}

TEST(CodecMalformedTest, DeltaCountExceedsPayload) {
  // Header claims 1M values but the stream holds 3 gaps: the decoder must
  // refuse before reserving room for the phantom million.
  ByteBuffer buf;
  EncodeLeb128(1000000, &buf);
  EncodeLeb128(1, &buf);
  EncodeLeb128(1, &buf);
  EncodeLeb128(1, &buf);
  ByteReader reader(buf);
  std::vector<uint64_t> out;
  EXPECT_EQ(TryDeltaDecode(&reader, &out).code(), StatusCode::kCorruption);
}

TEST(CodecMalformedTest, DeltaTruncatedMidStream) {
  std::vector<uint64_t> values = {5, 1000, 70000, 1 << 20};
  ByteBuffer buf;
  DeltaEncode(values, /*presorted=*/false, &buf);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    ByteBuffer trunc;
    trunc.insert(trunc.end(), buf.begin(), buf.begin() + cut);
    ByteReader reader(trunc);
    std::vector<uint64_t> out;
    EXPECT_EQ(TryDeltaDecode(&reader, &out).code(), StatusCode::kCorruption)
        << "cut=" << cut;
  }
}

TEST(CodecMalformedTest, NodeGroupBadCountsAndTrailing) {
  std::vector<KeyNodePair> pairs = {{10, 0}, {20, 0}, {30, 2}};
  ByteBuffer buf;
  NodeGroupEncode(pairs, 4, &buf);

  // Truncations at every boundary.
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    ByteBuffer trunc;
    trunc.insert(trunc.end(), buf.begin(), buf.begin() + cut);
    ByteReader reader(trunc);
    std::vector<KeyNodePair> out;
    EXPECT_EQ(TryNodeGroupDecode(&reader, 4, &out).code(),
              StatusCode::kCorruption)
        << "cut=" << cut;
  }

  // Trailing garbage after a well-formed stream.
  ByteBuffer extra = buf;
  extra.push_back(0x7f);
  ByteReader reader(extra);
  std::vector<KeyNodePair> out;
  EXPECT_EQ(TryNodeGroupDecode(&reader, 4, &out).code(),
            StatusCode::kCorruption);
}

TEST(CodecMalformedTest, PrefixGroupTruncatedHeader) {
  std::vector<uint64_t> values = {3, 9, 200, 4096, 100000};
  ByteBuffer buf;
  PrefixGroupEncode(values, /*width_bits=*/20, /*prefix_bits=*/8, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteBuffer trunc;
    trunc.insert(trunc.end(), buf.begin(), buf.begin() + cut);
    ByteReader reader(trunc);
    std::vector<uint64_t> out;
    Status status = TryPrefixGroupDecode(&reader, 20, 8, &out);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "cut=" << cut;
  }
}

TEST(CodecMalformedTest, BloomBadHeadersAndTruncation) {
  BloomFilter filter(100, 10);
  for (uint64_t k = 0; k < 100; ++k) filter.Add(k);
  ByteBuffer buf;
  filter.Serialize(&buf);
  auto decode = [](const ByteBuffer& bytes) {
    ByteReader reader(bytes);
    return BloomFilter::TryDeserialize(&reader).status().code();
  };
  ASSERT_EQ(decode(buf), StatusCode::kOk);

  // Truncations at every boundary: mid-varint and short word bytes.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteBuffer trunc(buf.begin(), buf.begin() + cut);
    EXPECT_EQ(decode(trunc), StatusCode::kCorruption) << "cut=" << cut;
  }

  // Bad geometry: num_bits zero or not a multiple of 64, num_hashes zero.
  auto header = [](uint64_t num_bits, uint64_t num_hashes) {
    ByteBuffer bytes;
    EncodeLeb128(num_bits, &bytes);
    EncodeLeb128(num_hashes, &bytes);
    bytes.resize(bytes.size() + 64, 0xff);  // Enough words for 512 bits.
    return bytes;
  };
  EXPECT_EQ(decode(header(64, 3)), StatusCode::kOk);
  EXPECT_EQ(decode(header(0, 3)), StatusCode::kCorruption);
  EXPECT_EQ(decode(header(100, 3)), StatusCode::kCorruption);
  EXPECT_EQ(decode(header(64, 0)), StatusCode::kCorruption);
  // A size past the payload is refused before anything is allocated.
  EXPECT_EQ(decode(header(uint64_t{1} << 62, 3)), StatusCode::kCorruption);
}

TEST(CodecMalformedTest, PrefixGroupCountOverflow) {
  // A group header whose count field claims far more suffixes than the
  // stream's declared total (and than the remaining bits could encode).
  ByteBuffer buf;
  EncodeLeb128(3, &buf);  // declared total
  {
    BitPacker packer(&buf);
    packer.Put(0, 8);            // prefix
    packer.Put(0xffffffff, 32);  // absurd count
    packer.Put(1, 12);           // one lonely suffix
  }
  ByteReader reader(buf);
  std::vector<uint64_t> out;
  EXPECT_EQ(TryPrefixGroupDecode(&reader, 20, 8, &out).code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace tj
