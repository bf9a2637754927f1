#include "costmodel/pipeline.h"

#include <gtest/gtest.h>

namespace tj {
namespace {

TEST(MakespanBoundsTest, ProfileMakespanBoundsMatchesStageBounds) {
  // ProfileMakespanBounds is MakespanBounds over StagesFromProfile: lower
  // is the perfect-overlap resource bound, upper the de-pipelined sum.
  StepProfile profile;
  profile.algorithm = "4tj-p";
  StepRecord a;
  a.phase = "track";
  a.wall_seconds = 2.0;
  a.net_seconds = 1.0;
  StepRecord b;
  b.phase = "transfer";
  b.wall_seconds = 0.5;
  b.net_seconds = 3.0;
  profile.steps = {a, b};
  const PipelineBounds bounds = ProfileMakespanBounds(profile);
  EXPECT_DOUBLE_EQ(bounds.lower_seconds, 4.0);  // max(2.5 cpu, 4.0 net).
  EXPECT_DOUBLE_EQ(bounds.upper_seconds, 6.5);
  EXPECT_LE(bounds.lower_seconds, bounds.upper_seconds);
}

TEST(MakespanBoundsTest, HandComputedBounds) {
  std::vector<PipelineStage> stages = {{"a", 2.0, 3.0}, {"b", 1.0, 0.5}};
  PipelineBounds bounds = MakespanBounds(stages);
  // Lower: the busier resource (net 3.5 vs cpu 3.0). Upper: serial sum.
  EXPECT_DOUBLE_EQ(bounds.lower_seconds, 3.5);
  EXPECT_DOUBLE_EQ(bounds.upper_seconds, 6.5);
  EXPECT_TRUE(bounds.Contains(3.5));
  EXPECT_TRUE(bounds.Contains(6.5));
  EXPECT_TRUE(bounds.Contains(5.0));
  EXPECT_FALSE(bounds.Contains(3.4));
  EXPECT_FALSE(bounds.Contains(6.6));
}

TEST(MakespanBoundsTest, EmptyStagesCollapseToZero) {
  PipelineBounds bounds = MakespanBounds({});
  EXPECT_DOUBLE_EQ(bounds.lower_seconds, 0.0);
  EXPECT_DOUBLE_EQ(bounds.upper_seconds, 0.0);
  EXPECT_TRUE(bounds.Contains(0.0));
}

TEST(MakespanBoundsTest, CpuOnlyStagesCannotOverlap) {
  // A single CPU resource cannot pipeline with itself: both bounds are the
  // CPU sum.
  PipelineBounds bounds = MakespanBounds({{"a", 5.0, 0.0}, {"b", 1.5, 0.0}});
  EXPECT_DOUBLE_EQ(bounds.lower_seconds, 6.5);
  EXPECT_DOUBLE_EQ(bounds.upper_seconds, 6.5);
}

TEST(StagesFromProfileTest, MirrorsStepRecords) {
  StepProfile profile;
  profile.algorithm = "4tj-p";
  StepRecord track;
  track.phase = "track";
  track.wall_seconds = 0.25;
  track.net_seconds = 0.125;
  StepRecord join;
  join.phase = "join";
  join.wall_seconds = 1.5;
  join.net_seconds = 0.0;
  profile.steps = {track, join};

  auto stages = StagesFromProfile(profile);
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "track");
  EXPECT_DOUBLE_EQ(stages[0].cpu_seconds, 0.25);
  EXPECT_DOUBLE_EQ(stages[0].net_seconds, 0.125);
  EXPECT_EQ(stages[1].name, "join");
  EXPECT_DOUBLE_EQ(stages[1].cpu_seconds, 1.5);
  EXPECT_DOUBLE_EQ(stages[1].net_seconds, 0.0);

  PipelineBounds bounds = MakespanBounds(stages);
  EXPECT_DOUBLE_EQ(bounds.upper_seconds, 1.875);
}

}  // namespace
}  // namespace tj
