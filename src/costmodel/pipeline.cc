#include "costmodel/pipeline.h"

#include <algorithm>

namespace tj {

PipelineBounds MakespanBounds(const std::vector<PipelineStage>& stages) {
  PipelineBounds bounds;
  double cpu = 0, net = 0;
  for (const auto& stage : stages) {
    cpu += stage.cpu_seconds;
    net += stage.net_seconds;
  }
  bounds.lower_seconds = std::max(cpu, net);
  bounds.upper_seconds = cpu + net;
  return bounds;
}

std::vector<PipelineStage> StagesFromProfile(const StepProfile& profile) {
  std::vector<PipelineStage> stages;
  stages.reserve(profile.steps.size());
  for (const StepRecord& step : profile.steps) {
    stages.push_back({step.phase, step.wall_seconds, step.net_seconds});
  }
  return stages;
}

PipelineBounds ProfileMakespanBounds(const StepProfile& profile) {
  return MakespanBounds(StagesFromProfile(profile));
}

}  // namespace tj
