// Microbenchmarks for the AIM substrate: per-request scheduling cost at every
// intersection geometry, plan conflict checking, and evacuation replanning.
// The paper cites DASH generating plans for 1000 vehicles in < 0.5 s; this
// harness shows the reservation scheduler's per-request cost in that regime.
#include <benchmark/benchmark.h>

#include "aim/baseline.h"
#include "aim/scheduler.h"
#include "support.h"
#include "traffic/arrivals.h"
#include "util/file_io.h"

namespace {

using namespace nwade;

const traffic::Intersection& intersection_of(int kind) {
  static std::map<int, traffic::Intersection> cache;
  auto it = cache.find(kind);
  if (it == cache.end()) {
    traffic::IntersectionConfig cfg;
    cfg.kind = static_cast<traffic::IntersectionKind>(kind);
    it = cache.emplace(kind, traffic::Intersection::build(cfg)).first;
  }
  return it->second;
}

void BM_IntersectionBuild(benchmark::State& state) {
  traffic::IntersectionConfig cfg;
  cfg.kind = static_cast<traffic::IntersectionKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::Intersection::build(cfg));
  }
}
BENCHMARK(BM_IntersectionBuild)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_Schedule(benchmark::State& state) {
  const auto& ix = intersection_of(static_cast<int>(state.range(0)));
  traffic::ArrivalGenerator gen(ix, 120, Rng(3));
  const auto arrivals = gen.generate(10 * 60 * 1000);
  aim::ReservationScheduler sched(ix);
  std::size_t i = 0;
  std::uint64_t vid = 1;
  for (auto _ : state) {
    const auto& a = arrivals[i % arrivals.size()];
    benchmark::DoNotOptimize(
        sched.schedule(VehicleId{vid++}, a.route_id, a.traits, a.time, 20.0));
    if (++i % arrivals.size() == 0) {
      state.PauseTiming();
      sched.release_before(kTickMax);  // keep tables bounded across laps
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_Schedule)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_ScheduleBurst1000(benchmark::State& state) {
  // The DASH comparison point: 1000 vehicles scheduled back-to-back.
  const auto& ix = intersection_of(1);  // 4-way cross
  traffic::ArrivalGenerator gen(ix, 120, Rng(4));
  const auto arrivals = gen.generate(10 * 60 * 1000);
  for (auto _ : state) {
    aim::ReservationScheduler sched(ix);
    std::uint64_t vid = 1;
    for (int i = 0; i < 1000; ++i) {
      const auto& a = arrivals[static_cast<std::size_t>(i) % arrivals.size()];
      benchmark::DoNotOptimize(
          sched.schedule(VehicleId{vid++}, a.route_id, a.traits,
                         static_cast<Tick>(i) * 100, 20.0));
    }
  }
}
BENCHMARK(BM_ScheduleBurst1000)->Unit(benchmark::kMillisecond);

void BM_FindPlanConflicts(benchmark::State& state) {
  const auto& ix = intersection_of(1);
  traffic::ArrivalGenerator gen(ix, 120, Rng(5));
  const auto arrivals = gen.generate(10 * 60 * 1000);
  aim::ReservationScheduler sched(ix);
  std::vector<aim::TravelPlan> plans;
  std::uint64_t vid = 1;
  for (int i = 0; i < state.range(0); ++i) {
    const auto& a = arrivals[static_cast<std::size_t>(i)];
    plans.push_back(sched.schedule(VehicleId{vid++}, a.route_id, a.traits, a.time, 20.0));
  }
  std::vector<const aim::TravelPlan*> ptrs;
  for (const auto& p : plans) ptrs.push_back(&p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aim::find_plan_conflicts(ix, ptrs, 500));
  }
}
BENCHMARK(BM_FindPlanConflicts)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_PlanEvacuation(benchmark::State& state) {
  const auto& ix = intersection_of(1);
  aim::ReservationScheduler sched(ix);
  std::vector<aim::ActiveVehicle> active;
  Rng rng(6);
  for (int i = 0; i < state.range(0); ++i) {
    active.push_back(aim::ActiveVehicle{
        VehicleId{static_cast<std::uint64_t>(i) + 1}, i % 12, {},
        rng.uniform(0, 300), rng.uniform(5, 20)});
  }
  aim::ThreatInfo threat;
  threat.position = ix.route(0).path.point_at(ix.route(0).core_begin);
  threat.suspect = VehicleId{9999};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.plan_evacuation(active, threat, 50'000));
  }
}
BENCHMARK(BM_PlanEvacuation)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_TrafficLightSchedule(benchmark::State& state) {
  const auto& ix = intersection_of(1);
  traffic::ArrivalGenerator gen(ix, 120, Rng(7));
  const auto arrivals = gen.generate(10 * 60 * 1000);
  aim::TrafficLightScheduler lights(ix);
  std::size_t i = 0;
  std::uint64_t vid = 1;
  for (auto _ : state) {
    const auto& a = arrivals[i++ % arrivals.size()];
    benchmark::DoNotOptimize(
        lights.schedule(VehicleId{vid++}, a.route_id, a.traits, a.time, 20.0));
  }
}
BENCHMARK(BM_TrafficLightSchedule)->Unit(benchmark::kMicrosecond);

/// Headline phases re-measured with the shared warmup + median-of-N helper
/// and written to BENCH_scheduler_micro.json (nwade-bench-v1, support.h) so
/// run-over-run diffs don't depend on google-benchmark's console format.
constexpr const char* kOutPath = "BENCH_scheduler_micro.json";

bool emit_bench_json() {
  const auto t_start = std::chrono::steady_clock::now();
  const auto& ix = intersection_of(1);  // 4-way cross
  traffic::ArrivalGenerator gen(ix, 120, Rng(4));
  const auto arrivals = gen.generate(10 * 60 * 1000);

  const auto burst = [&] {
    aim::ReservationScheduler sched(ix);
    std::uint64_t vid = 1;
    for (int i = 0; i < 1000; ++i) {
      const auto& a = arrivals[static_cast<std::size_t>(i) % arrivals.size()];
      benchmark::DoNotOptimize(sched.schedule(VehicleId{vid++}, a.route_id,
                                              a.traits,
                                              static_cast<Tick>(i) * 100, 20.0));
    }
  };
  const auto burst_indexed = nwade::bench::timed_median(1, 5, burst);

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  const std::string envelope = nwade::bench::bench_envelope(
      "scheduler_micro", wall_s,
      {nwade::bench::json_phase("schedule_burst_1000_indexed", burst_indexed)});
  return nwade::bench::write_bench_file(kOutPath, envelope);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Fail on an unwritable envelope path before the timing runs, and
  // propagate a failed write as a failing exit code — a silent envelope
  // loss would let CI diff against a stale BENCH file.
  if (!nwade::util::preflight_output_path(kOutPath)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return emit_bench_json() ? 0 : 1;
}
