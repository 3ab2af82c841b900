// Allocation gate for the pooled world-step kernel (ctest label: alloc).
//
// World::last_step_allocs() meters the process-wide heap-allocation counter
// around exactly the one fan-out of a step, the watch scan (sensing plus
// Algorithm 2's pure decisions), excluding the serial commit after it,
// which sends protocol messages and allocates by design. Once a world is
// warm (scratch capacities grown, the sensor scene and the pool sized), the
// kernel must stay at exactly zero on every subsequent step, spawns and
// exits included, at one step thread (inline chunks) and at four (the
// threaded fan-out). Only measured in -DNWADE_COUNT_ALLOCS=ON builds; the
// default build skips.
#include <gtest/gtest.h>

#include <string>

#include "sim/world.h"
#include "util/alloc_stats.h"

namespace nwade::sim {
namespace {

#define REQUIRE_COUNTING()                                                  \
  if (!util::alloc_counting_enabled()) {                                    \
    GTEST_SKIP() << "build with -DNWADE_COUNT_ALLOCS=ON to arm this gate";  \
  }

class WorldAllocGate : public ::testing::TestWithParam<int> {};

TEST_P(WorldAllocGate, ChunkedStepKernelsAreAllocationFreeOnceWarm) {
  REQUIRE_COUNTING();
  ScenarioConfig cfg;
  cfg.step_threads = GetParam();
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 80;
  cfg.duration_ms = 90'000;
  cfg.seed = 1;

  World world(cfg);
  world.run_until(30'000);  // warm: scratch capacities, the scene, pool state

  int measured = 0;
  for (Tick t = 30'000 + cfg.step_ms; t <= cfg.duration_ms; t += cfg.step_ms) {
    world.run_until(t);
    const auto allocs = world.last_step_allocs();
    ASSERT_EQ(allocs.watch, 0u) << "watch scan kernel allocated at t=" << t;
    ++measured;
  }
  EXPECT_EQ(measured, 600);  // 60 s of 100 ms steps, none skipped
}

// Same gate under an attack scenario: watchers that sense the deviator
// report it in the serial commit, so the scan before it must stay clean.
TEST_P(WorldAllocGate, KernelsStayCleanUnderDeviationAttack) {
  REQUIRE_COUNTING();
  ScenarioConfig cfg;
  cfg.step_threads = GetParam();
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 80;
  cfg.duration_ms = 80'000;
  cfg.seed = 5;
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};

  World world(cfg);
  world.run_until(40'000);
  for (Tick t = 40'000 + cfg.step_ms; t <= cfg.duration_ms; t += cfg.step_ms) {
    world.run_until(t);
    const auto allocs = world.last_step_allocs();
    ASSERT_EQ(allocs.watch, 0u) << "watch scan kernel allocated at t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(StepThreads, WorldAllocGate, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "_threads";
                         });

}  // namespace
}  // namespace nwade::sim
