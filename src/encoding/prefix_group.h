// Radix-prefix grouping codec (paper Section 2.4).
//
// "Perform partitioning at the source to create common prefixes. For
// instance, we can radix partition the first p bits and pack (w−p)-bit
// suffixes with a common prefix." Each group is emitted once as
//   <prefix : p bits> <count : LEB128> <suffixes : count × (w−p) bits>
// which amortizes the prefix over all values that share it.
#ifndef TJ_ENCODING_PREFIX_GROUP_H_
#define TJ_ENCODING_PREFIX_GROUP_H_

#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace tj {

/// Encodes `values`, each of `width_bits` significant bits, grouping by the
/// top `prefix_bits` bits. Values are sorted internally (grouping requires
/// it); decoding returns them sorted. Preconditions:
///   1 <= width_bits <= 64, 0 <= prefix_bits < width_bits.
void PrefixGroupEncode(std::vector<uint64_t> values, uint32_t width_bits,
                       uint32_t prefix_bits, ByteBuffer* out);

/// Decodes a stream produced by PrefixGroupEncode with the same parameters.
/// Truncated streams, totals that exceed what the remaining bits could
/// hold, and group counts past the declared total return
/// Status::Corruption (and never abort or over-read).
Status TryPrefixGroupDecode(ByteReader* in, uint32_t width_bits,
                            uint32_t prefix_bits, std::vector<uint64_t>* out);

/// Exact encoded size in bytes.
uint64_t PrefixGroupEncodedSize(std::vector<uint64_t> values,
                                uint32_t width_bits, uint32_t prefix_bits);

/// Picks the prefix width in [0, width_bits) minimizing encoded size for the
/// given (sorted or unsorted) values, by trying all widths.
uint32_t BestPrefixBits(const std::vector<uint64_t>& values,
                        uint32_t width_bits);

}  // namespace tj

#endif  // TJ_ENCODING_PREFIX_GROUP_H_
