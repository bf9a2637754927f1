#include "storage/tuple_block.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace tj {
namespace {

TupleBlock MakeBlock(std::vector<uint64_t> keys, uint32_t width) {
  TupleBlock block(width);
  std::vector<uint8_t> payload(width);
  for (uint64_t k : keys) {
    for (uint32_t i = 0; i < width; ++i) {
      payload[i] = static_cast<uint8_t>(k + i);
    }
    block.Append(k, payload.data());
  }
  return block;
}

TEST(TupleBlockTest, AppendAndAccess) {
  TupleBlock block = MakeBlock({10, 20, 30}, 4);
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(block.Key(1), 20u);
  EXPECT_EQ(block.Payload(1)[0], 20);
  EXPECT_EQ(block.Payload(1)[3], 23);
  EXPECT_FALSE(block.empty());
}

TEST(TupleBlockTest, ZeroWidthPayload) {
  TupleBlock block(0);
  block.Append(7, nullptr);
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(block.Payload(0), nullptr);
  EXPECT_EQ(block.MemoryBytes(), 8u);
}

TEST(TupleBlockTest, SerializeDeserializeRoundTrip) {
  TupleBlock block = MakeBlock({1, 2, 300}, 6);
  ByteBuffer buf;
  block.SerializeRows(0, block.size(), /*key_bytes=*/4, &buf);
  EXPECT_EQ(buf.size(), 3u * (4 + 6));

  TupleBlock out(6);
  ByteReader reader(buf);
  ASSERT_TRUE(out.TryDeserializeRows(&reader, 4).ok());
  ASSERT_EQ(out.size(), 3u);
  for (uint64_t row = 0; row < 3; ++row) {
    EXPECT_EQ(out.Key(row), block.Key(row));
    EXPECT_EQ(0, std::memcmp(out.Payload(row), block.Payload(row), 6));
  }
}

TEST(TupleBlockTest, SerializeIndexedSubset) {
  TupleBlock block = MakeBlock({5, 6, 7, 8}, 2);
  ByteBuffer buf;
  block.SerializeRowsIndexed(std::vector<uint32_t>{3, 1}, 8, &buf);
  TupleBlock out(2);
  ByteReader reader(buf);
  ASSERT_TRUE(out.TryDeserializeRows(&reader, 8).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.Key(0), 8u);
  EXPECT_EQ(out.Key(1), 6u);
}

TEST(TupleBlockTest, AppendFromCopiesPayload) {
  TupleBlock src = MakeBlock({42}, 3);
  TupleBlock dst(3);
  dst.AppendFrom(src, 0);
  EXPECT_EQ(dst.Key(0), 42u);
  EXPECT_EQ(0, std::memcmp(dst.Payload(0), src.Payload(0), 3));
}

TEST(TupleBlockTest, GatherMovesPayloadsWithKeys) {
  const TupleBlock block = MakeBlock({10, 20, 30}, 2);
  // output[i] = input[rows[i]]
  TupleBlock out = block.Gather(std::vector<uint32_t>{2, 0, 1});
  EXPECT_EQ(out.Key(0), 30u);
  EXPECT_EQ(out.Key(1), 10u);
  EXPECT_EQ(out.Key(2), 20u);
  EXPECT_EQ(out.Payload(0)[0], 30);
  EXPECT_EQ(out.Payload(1)[0], 10);
  // Rows may repeat or be left out; the source stays as it was.
  out = block.Gather(std::vector<uint32_t>{1, 1});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.Key(1), 20u);
  EXPECT_EQ(out.Payload(1)[0], 20);
  EXPECT_EQ(block.Key(0), 10u);
}

TEST(TupleBlockTest, FilterKeepsMatchingRows) {
  TupleBlock block = MakeBlock({1, 2, 3, 4, 5}, 2);
  uint64_t removed =
      block.Filter([&](uint64_t row) { return block.Key(row) % 2 == 1; });
  EXPECT_EQ(removed, 2u);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block.Key(0), 1u);
  EXPECT_EQ(block.Key(1), 3u);
  EXPECT_EQ(block.Key(2), 5u);
  EXPECT_EQ(block.Payload(2)[1], 6);  // Payload moved with the key.
}

TEST(TupleBlockTest, EqualRangeOnSortedKeys) {
  TupleBlock block = MakeBlock({1, 3, 3, 3, 7}, 0);
  auto [lo, hi] = block.EqualRange(3);
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 4u);
  auto [lo2, hi2] = block.EqualRange(5);
  EXPECT_EQ(lo2, hi2);
  auto [lo3, hi3] = block.EqualRange(0);
  EXPECT_EQ(lo3, 0u);
  EXPECT_EQ(hi3, 0u);
}

TEST(TupleBlockTest, ChunkedDeserializeGrowsGeometrically) {
  // Streaming receivers append one small chunk per call; each call must not
  // re-copy the whole block, so the key array moves O(log n) times.
  constexpr uint64_t kChunks = 4096;
  TupleBlock block(3);
  uint64_t reallocations = 0;
  const uint64_t* data = block.keys().data();
  for (uint64_t i = 0; i < kChunks; ++i) {
    TupleBlock one = MakeBlock({i}, 3);
    ByteBuffer buf;
    one.SerializeRows(0, 1, /*key_bytes=*/4, &buf);
    ByteReader reader(buf);
    ASSERT_TRUE(block.TryDeserializeRows(&reader, 4).ok());
    if (block.keys().data() != data) {
      ++reallocations;
      data = block.keys().data();
    }
  }
  ASSERT_EQ(block.size(), kChunks);
  EXPECT_EQ(block.Key(kChunks - 1), kChunks - 1);
  EXPECT_EQ(block.Payload(kChunks - 1)[2], static_cast<uint8_t>(kChunks + 1));
  EXPECT_LE(reallocations, 2 * 12 + 4u);  // 2 * log2(4096) + 4.
}

TEST(TupleBlockTest, EqualRangeCursorMatchesEqualRangeInAnyProbeOrder) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 200; ++k) {
    for (uint64_t copies = 0; copies < k % 4; ++copies) keys.push_back(3 * k);
  }
  TupleBlock block = MakeBlock(keys, 0);
  // Ascending with repeats and gaps, then a descent (forces a reset), then
  // an overshoot past the last key.
  std::vector<uint64_t> probes;
  for (uint64_t k = 0; k < 650; k += 5) probes.push_back(k);
  probes.insert(probes.end(), {300, 300, 2, 597, 1, 0, 1000, 3, 598});
  EqualRangeCursor cursor(block);
  for (uint64_t key : probes) {
    EXPECT_EQ(cursor.Seek(key), block.EqualRange(key)) << "key " << key;
  }
  TupleBlock empty(0);
  EqualRangeCursor on_empty(empty);
  EXPECT_EQ(on_empty.Seek(5), (std::pair<uint64_t, uint64_t>{0, 0}));
}

// A cursor over a row range searches only those rows, which alone need be
// sorted, and returns row numbers of the whole block.
TEST(TupleBlockTest, EqualRangeCursorOverRowRange) {
  // Rows 0-3 and 9-10 are out of order and hold keys the range also holds.
  TupleBlock block =
      MakeBlock({9, 4, 7, 4, 2, 4, 4, 7, 9, 4, 1}, 0);
  const TupleBlock range = MakeBlock({2, 4, 4, 7, 9}, 0);  // Rows 4-8.
  EqualRangeCursor cursor(block, 4, 9);
  for (uint64_t key : {0, 2, 3, 4, 4, 7, 9, 10, 4, 1}) {
    auto [lo, hi] = range.EqualRange(key);
    EXPECT_EQ(cursor.Seek(key), (std::pair<uint64_t, uint64_t>{lo + 4, hi + 4}))
        << "key " << key;
  }
  EqualRangeCursor empty_range(block, 3, 3);
  EXPECT_EQ(empty_range.Seek(4), (std::pair<uint64_t, uint64_t>{3, 3}));
}

TEST(TupleBlockTest, ClearKeepsWidth) {
  TupleBlock block = MakeBlock({1, 2}, 4);
  block.Clear();
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.payload_width(), 4u);
}

TEST(TupleBlockTest, RowBytes) {
  TupleBlock block(12);
  EXPECT_EQ(block.RowBytes(4), 16u);
}


// The word-at-a-time codec against a ByteWriter/ByteReader reference, for
// every key width and payload widths around and past a word, appending to
// a non-empty buffer and reading keys near the buffer's end byte by byte.
TEST(TupleBlockTest, WordCodecMatchesByteReference) {
  for (uint32_t key_bytes = 1; key_bytes <= 8; ++key_bytes) {
    for (uint32_t width : {0u, 1u, 7u, 33u}) {
      TupleBlock block(width);
      std::vector<uint8_t> payload(width);
      const uint64_t key_max = FieldMask(key_bytes);
      for (uint64_t i = 0; i < 23; ++i) {
        for (uint32_t b = 0; b < width; ++b) {
          payload[b] = static_cast<uint8_t>(i * 31 + b * 7 + 1);
        }
        block.Append((0x0123456789abcdefULL * (i + 1)) & key_max,
                     payload.data());
      }
      const std::vector<uint32_t> rows = {22, 0, 5, 5, 17, 22};
      ByteBuffer reference = {0xee};
      ByteWriter writer(&reference);
      for (uint64_t row = 3; row < 20; ++row) {
        writer.PutUint(block.Key(row), key_bytes);
        writer.PutBytes(block.Payload(row), width);
      }
      for (uint32_t row : rows) {
        writer.PutUint(block.Key(row), key_bytes);
        writer.PutBytes(block.Payload(row), width);
      }
      ByteBuffer buf = {0xee};
      block.SerializeRows(3, 20, key_bytes, &buf);
      block.SerializeRowsIndexed(rows, key_bytes, &buf);
      ASSERT_EQ(buf, reference) << "key_bytes=" << key_bytes
                                << " width=" << width;

      TupleBlock decoded(width);
      decoded.Append(7, payload.data());  // Appends after existing rows.
      ByteReader reader(buf.data() + 1, buf.size() - 1);
      ASSERT_TRUE(decoded.TryDeserializeRows(&reader, key_bytes).ok());
      EXPECT_TRUE(reader.Done());
      ByteReader ref_reader(reference.data() + 1, reference.size() - 1);
      ASSERT_EQ(decoded.size(), 1u + 17 + rows.size());
      for (uint64_t row = 1; row < decoded.size(); ++row) {
        EXPECT_EQ(decoded.Key(row), ref_reader.GetUint(key_bytes))
            << "key_bytes=" << key_bytes << " width=" << width;
        std::vector<uint8_t> expected(width);
        ref_reader.GetBytes(expected.data(), width);
        EXPECT_TRUE(width == 0 || std::memcmp(decoded.Payload(row),
                                              expected.data(), width) == 0);
      }
    }
  }
}

TEST(TupleBlockTest, DeserializeRejectsPartialRow) {
  TupleBlock block = MakeBlock({1, 2}, 3);
  ByteBuffer buf;
  block.SerializeRows(0, 2, /*key_bytes=*/4, &buf);
  buf.pop_back();
  TupleBlock out(3);
  ByteReader reader(buf);
  EXPECT_EQ(out.TryDeserializeRows(&reader, 4).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(out.size(), 0u);
}

}  // namespace
}  // namespace tj
