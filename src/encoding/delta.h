// Delta encoding of sorted key streams (paper Section 2.4).
//
// Track join imposes no message order beyond its phase barriers, so senders
// are free to sort key columns before transmission and delta-code them —
// the simplest of the traffic-compression layers the paper describes.
#ifndef TJ_ENCODING_DELTA_H_
#define TJ_ENCODING_DELTA_H_

#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace tj {

/// Appends `values` (will be sorted internally if `presorted` is false) as
/// first value + LEB128 gaps. Returns the number of encoded values.
uint64_t DeltaEncode(std::vector<uint64_t> values, bool presorted,
                     ByteBuffer* out);

/// Decodes a stream produced by DeltaEncode; the values come back sorted.
/// A truncated stream or a count that exceeds what the remaining bytes
/// could possibly hold returns Status::Corruption (and never aborts or
/// over-reserves).
Status TryDeltaDecode(ByteReader* in, std::vector<uint64_t>* out);

/// Exact encoded size in bytes without materializing the buffer.
uint64_t DeltaEncodedSize(std::vector<uint64_t> values, bool presorted);

}  // namespace tj

#endif  // TJ_ENCODING_DELTA_H_
