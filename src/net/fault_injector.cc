#include "net/fault_injector.h"

#include "common/logging.h"

namespace tj {

FaultInjector::FaultInjector(const FaultPolicy& policy, uint64_t seed,
                             uint32_t num_nodes)
    : policy_(policy), barrier_rng_(SplitMix64(seed ^ 0xba221e5ULL)) {
  sources_.reserve(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    // Distinct deterministic stream per sending node: decisions do not
    // depend on the interleaving of other nodes' sends.
    sources_.push_back(Rng(SplitMix64(seed + 1) ^
                           SplitMix64(n * 0x9e3779b97f4a7c15ULL + 7)));
  }
}

std::vector<ByteBuffer> FaultInjector::Transmit(uint32_t src, uint32_t dst,
                                                const ByteBuffer& frame,
                                                FaultCounters* faults) {
  TJ_CHECK_LT(src, sources_.size());
  std::vector<ByteBuffer> out;
  if (src == dst) {
    // Local copies never touch the wire.
    out.push_back(frame);
    return out;
  }
  Rng& rng = sources_[src];
  uint32_t copies = 1;
  if (policy_.duplicate > 0 && rng.Bernoulli(policy_.duplicate)) {
    ++copies;
    ++faults->frames_duplicated;
  }
  for (uint32_t c = 0; c < copies; ++c) {
    if (policy_.drop > 0 && rng.Bernoulli(policy_.drop)) {
      ++faults->frames_dropped;
      continue;
    }
    ByteBuffer copy = frame;
    if (policy_.corrupt > 0 && rng.Bernoulli(policy_.corrupt) &&
        !copy.empty()) {
      uint64_t bit = rng.Below(copy.size() * 8);
      copy[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ++faults->frames_corrupted;
    }
    out.push_back(std::move(copy));
  }
  return out;
}

bool FaultInjector::ShouldReorder() {
  return policy_.reorder > 0 && barrier_rng_.Bernoulli(policy_.reorder);
}

}  // namespace tj
