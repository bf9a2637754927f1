// Analytic envelope of a pipelined run's makespan (paper Section 5).
//
// The event-driven fabric (net/pipelined_fabric.h) is the model of
// pipelined time; this module only brackets its result. A run's step
// profile becomes a chain of stages, each a CPU burst plus a transfer, and
// no schedule of that chain can beat saturating the busier resource or be
// worse than running every stage back to back.
#ifndef TJ_COSTMODEL_PIPELINE_H_
#define TJ_COSTMODEL_PIPELINE_H_

#include <string>
#include <vector>

#include "obs/step_profile.h"

namespace tj {

/// One stage of the pipeline: a CPU burst followed by a transfer.
struct PipelineStage {
  std::string name;
  double cpu_seconds = 0;
  double net_seconds = 0;
};

/// Theoretical envelope for any pipelined schedule of `stages`: no schedule
/// beats saturating the busier resource (lower = max(Σcpu, Σnet)), and none
/// is worse than running every stage back to back with no overlap at all
/// (upper = Σcpu + Σnet). The event-driven fabric's makespan must land
/// inside; tests and the CI makespan gate pin this.
struct PipelineBounds {
  double lower_seconds = 0;
  double upper_seconds = 0;

  bool Contains(double seconds, double tolerance = 1e-9) const {
    return seconds >= lower_seconds - tolerance &&
           seconds <= upper_seconds + tolerance;
  }
};
PipelineBounds MakespanBounds(const std::vector<PipelineStage>& stages);

/// Derives the stage chain of a *pipelined* run from its step profile:
/// each step's busiest-node CPU seconds and busiest-NIC transfer seconds
/// become one stage, read from the modeled numbers the pipelined fabric
/// already computed — MakespanBounds of the result brackets the run's own
/// makespan_seconds.
std::vector<PipelineStage> StagesFromProfile(const StepProfile& profile);

/// Convenience composing the two: the theoretical envelope of a pipelined
/// run's own step profile. Used as the cost-model cross-check on the
/// critical-path blame report — a reconciled report's makespan (== the
/// fabric's measured makespan) must land inside these bounds, tying the
/// microsecond-exact blame decomposition back to the analytic model.
PipelineBounds ProfileMakespanBounds(const StepProfile& profile);

}  // namespace tj

#endif  // TJ_COSTMODEL_PIPELINE_H_
