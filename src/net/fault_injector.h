// Seeded fault injection for the simulated fabric.
//
// A FaultPolicy describes what the "wire" may do to a frame on its way from
// one node to another: drop it, duplicate it, flip a bit, deliver it out of
// order — plus whole-node failure modes (crash at a phase index, modeled
// slow-down). A FaultInjector executes one policy with deterministic,
// per-source-node RNG streams, so runs reproduce exactly for a given seed
// even when phases execute on a thread pool (each sending node owns its own
// stream, and barrier-time decisions run single-threaded).
//
// The zero policy (all probabilities zero, no crash) is inert: Fabric keeps
// its pristine unframed path and the injector is never consulted.
#ifndef TJ_NET_FAULT_INJECTOR_H_
#define TJ_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"
#include "common/rng.h"

namespace tj {

/// Per-link and per-node fault probabilities. Defaults are all-zero: a
/// default-constructed policy injects nothing and leaves the fabric on its
/// byte-identical deterministic path.
struct FaultPolicy {
  static constexpr uint32_t kNoNode = ~0u;

  /// P(a frame is dropped on the wire), per transmission attempt.
  double drop = 0.0;
  /// P(an extra copy of a frame is delivered), per transmission attempt.
  double duplicate = 0.0;
  /// P(a frame arrives with one flipped bit), per transmission attempt.
  double corrupt = 0.0;
  /// P(two adjacent delivered messages swap places in the receiver inbox).
  double reorder = 0.0;

  /// Node that fail-stops (skips its work, sends nothing) from phase
  /// `crash_phase` (0-based global phase index) onward. kNoNode disables.
  uint32_t crash_node = kNoNode;
  uint32_t crash_phase = 0;

  /// Node whose phases are modeled `slowdown_seconds` slower (added to the
  /// recorded phase wall time; a straggler, not a failure). kNoNode disables.
  uint32_t slow_node = kNoNode;
  double slowdown_seconds = 0.0;

  /// Retransmit rounds per phase before the barrier declares data loss.
  uint32_t max_retries = 8;

  /// True if this policy can perturb *delivery* (the fabric frames messages
  /// and runs the ack/retransmit protocol only in that case). A pure
  /// straggler (slow_node set, everything else zero) does not qualify: it
  /// only stretches modeled phase time, so the fabric models the slowdown
  /// on the pristine unframed path and traffic stays byte-identical.
  bool active() const {
    return drop > 0 || duplicate > 0 || corrupt > 0 || reorder > 0 ||
           crash_node != kNoNode;
  }

  /// True if the policy models a straggler (handled on either wire path).
  bool models_straggler() const {
    return slow_node != kNoNode && slowdown_seconds > 0;
  }

  /// True if installing this policy changes anything at all about a run.
  bool any_effect() const { return active() || models_straggler(); }
};

/// Counts of what the wire did: per transmission (FaultInjector::Transmit
/// tallies one frame's), per step (StepRecord) or per run.
struct FaultCounters {
  uint64_t frames_dropped = 0;
  uint64_t frames_corrupted = 0;
  uint64_t frames_duplicated = 0;
  uint64_t messages_reordered = 0;
};

/// Injector activity plus the retry protocol's work over a whole run, as
/// reported by Fabric::reliability(). All-zero on the pristine path.
struct ReliabilityStats {
  FaultCounters faults;
  /// Frames resent after a nack (each retransmission attempt counts once).
  uint64_t retransmitted_frames = 0;
  /// Nack control messages sent by receivers during retry rounds.
  uint64_t nack_messages = 0;
};

class FaultInjector {
 public:
  FaultInjector(const FaultPolicy& policy, uint64_t seed, uint32_t num_nodes);

  const FaultPolicy& policy() const { return policy_; }

  /// Runs one frame through the wire model for link src -> dst. Returns the
  /// copies that actually arrive (0, 1 or 2; corrupted copies have one bit
  /// flipped) and adds the drops, corruptions and duplicates to `*faults`.
  /// Only node `src`'s thread may call this during a phase.
  std::vector<ByteBuffer> Transmit(uint32_t src, uint32_t dst,
                                   const ByteBuffer& frame,
                                   FaultCounters* faults);

  /// True with probability policy().reorder, drawn from the barrier stream.
  /// Single-threaded barrier use only.
  bool ShouldReorder();

  /// True if `node` has fail-stopped at global phase index `phase`.
  bool NodeCrashed(uint32_t node, uint64_t phase) const {
    return node == policy_.crash_node && phase >= policy_.crash_phase;
  }

 private:
  FaultPolicy policy_;
  std::vector<Rng> sources_;  ///< One stream per sending node.
  Rng barrier_rng_;
};

}  // namespace tj

#endif  // TJ_NET_FAULT_INJECTOR_H_
