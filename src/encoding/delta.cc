#include "encoding/delta.h"

#include <algorithm>

#include "encoding/varint.h"

namespace tj {

uint64_t DeltaEncode(std::vector<uint64_t> values, bool presorted,
                     ByteBuffer* out) {
  if (!presorted) std::sort(values.begin(), values.end());
  EncodeLeb128(values.size(), out);
  uint64_t prev = 0;
  for (uint64_t v : values) {
    EncodeLeb128(v - prev, out);
    prev = v;
  }
  return values.size();
}

Status TryDeltaDecode(ByteReader* in, std::vector<uint64_t>* out) {
  uint64_t n = 0;
  TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &n));
  // Every encoded gap takes at least one byte, so a count beyond the
  // remaining bytes cannot be honest — reject before reserving.
  if (n > in->remaining()) {
    return Status::Corruption("delta stream count exceeds payload");
  }
  out->clear();
  out->reserve(n);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t gap = 0;
    TJ_RETURN_IF_ERROR(TryDecodeLeb128(in, &gap));
    prev += gap;
    out->push_back(prev);
  }
  return Status::OK();
}

uint64_t DeltaEncodedSize(std::vector<uint64_t> values, bool presorted) {
  if (!presorted) std::sort(values.begin(), values.end());
  uint64_t bytes = Leb128Size(values.size());
  uint64_t prev = 0;
  for (uint64_t v : values) {
    bytes += Leb128Size(v - prev);
    prev = v;
  }
  return bytes;
}

}  // namespace tj
