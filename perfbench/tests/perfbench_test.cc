// Tests of the benchmark itself: its rigs reproduce the library's scenarios bit
// for bit, the timing decorator forwards every Scheduler virtual, the per-layer
// accounting adds up to the traced wall, and the stream-cap guard fires.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster_farm.h"
#include "exp/scenarios.h"
#include "farms.h"
#include "layer_trace.h"
#include "report.h"
#include "task/registry.h"
#include "workloads/misc_work.h"
#include "workloads/web_farm.h"

namespace perfbench {
namespace {

using realrate::Cycles;
using realrate::Duration;
using realrate::SimThread;
using realrate::TimePoint;

Outcome RunRig(Workload w, uint64_t seed, Duration horizon, LayerTracer* tracer) {
  SetupTimes times;
  std::unique_ptr<Rig> rig = BuildRig(w, seed, horizon, tracer, &times);
  rig->Run();
  return rig->Harvest();
}

// --- The rigs are the library's scenarios ---------------------------------------

TEST(RigTest, WebFarmReproducesRunWebFarmScenario) {
  const Duration horizon = Duration::Seconds(2);
  const realrate::WebFarmResult expected =
      realrate::RunWebFarmScenario(WebFarmParamsFor(99, horizon));
  for (bool traced : {false, true}) {
    LayerTracer tracer;
    const Outcome o = RunRig(Workload::kWebFarm, 99, horizon, traced ? &tracer : nullptr);
    ASSERT_EQ(o.machine_hashes.size(), 1u);
    EXPECT_EQ(o.machine_hashes[0], expected.trace_hash) << "traced=" << traced;
    EXPECT_EQ(o.offered, expected.offered);
    EXPECT_EQ(o.served, expected.served);
    EXPECT_EQ(o.listen_drops, expected.listen_drops);
    EXPECT_EQ(o.dispatch_drops, expected.dispatch_drops);
    EXPECT_DOUBLE_EQ(o.latency_p999_ms, expected.p999_ms);
    EXPECT_DOUBLE_EQ(o.user_frac, expected.aggregate_user_fraction);
  }
}

TEST(RigTest, ServerFarmReproducesRunServerFarmScenario) {
  const Duration horizon = Duration::Millis(300);
  const realrate::ServerFarmResult expected =
      realrate::RunServerFarmScenario(ServerFarmParamsFor(horizon));
  for (bool traced : {false, true}) {
    LayerTracer tracer;
    const Outcome o = RunRig(Workload::kServerFarm, 99, horizon, traced ? &tracer : nullptr);
    ASSERT_EQ(o.machine_hashes.size(), 1u);
    EXPECT_EQ(o.machine_hashes[0], expected.trace_hash) << "traced=" << traced;
    EXPECT_EQ(o.consumed_bytes, expected.total_consumed_bytes);
    EXPECT_EQ(o.dispatches, expected.total_dispatches);
    EXPECT_EQ(o.producers_admitted, o.producers);
    EXPECT_DOUBLE_EQ(o.user_frac, expected.aggregate_user_fraction);
  }
}

TEST(RigTest, Cluster16ReproducesRunClusterFarmScenario) {
  const Duration horizon = Duration::Millis(400);
  const realrate::ClusterFarmResult expected =
      realrate::RunClusterFarmScenario(Cluster16ParamsFor(99, horizon));
  const Outcome o = RunRig(Workload::kCluster16, 99, horizon, nullptr);
  EXPECT_EQ(o.machine_hashes, expected.machine_trace_hashes);
  EXPECT_EQ(o.offered, expected.offered);
  EXPECT_EQ(o.injected, expected.injected);
  EXPECT_EQ(o.served, expected.served);
  EXPECT_EQ(o.listen_drops, expected.listen_drops);
  EXPECT_EQ(o.dispatch_drops, expected.dispatch_drops);
  EXPECT_EQ(o.rebalanced, expected.rebalanced);
  EXPECT_EQ(o.epoch_fences, expected.epoch_fences);
  EXPECT_DOUBLE_EQ(o.imbalance_ratio, expected.imbalance_ratio);
  EXPECT_DOUBLE_EQ(o.latency_p50_ms, expected.p50_ms);
  EXPECT_DOUBLE_EQ(o.latency_p999_ms, expected.p999_ms);
}

TEST(RigTest, Cluster16HasNoTracedStack) {
  LayerTracer tracer;
  SetupTimes times;
  EXPECT_THROW(BuildRig(Workload::kCluster16, 1, Duration::Millis(10), &tracer, &times),
               std::runtime_error);
}

// --- Output checks -----------------------------------------------------------------

TEST(CheckOutcomeTest, RejectsInconsistentRequestCounts) {
  Outcome o;
  o.offered = 100;
  o.injected = 100;
  o.served = 90;
  o.listen_drops = 5;
  o.dispatch_drops = 5;
  o.user_frac = 0.5;
  EXPECT_NO_THROW(CheckOutcome(Workload::kWebFarm, o));
  o.dispatch_drops = 6;  // served + drops > injected
  EXPECT_THROW(CheckOutcome(Workload::kWebFarm, o), std::runtime_error);
  o.dispatch_drops = 5;
  o.injected = 101;  // injected > offered
  EXPECT_THROW(CheckOutcome(Workload::kCluster16, o), std::runtime_error);
  o.injected = 100;
  o.served = 0;
  o.listen_drops = 0;
  o.dispatch_drops = 0;
  EXPECT_THROW(CheckOutcome(Workload::kWebFarm, o), std::runtime_error);
}

TEST(CheckOutcomeTest, RejectsIdleOrUnderAdmittedServerFarm) {
  Outcome o;
  o.producers = 4;
  o.producers_admitted = 4;
  o.consumed_bytes = 1;
  o.reservation_periods = 10;
  o.user_frac = 0.5;
  EXPECT_NO_THROW(CheckOutcome(Workload::kServerFarm, o));
  o.producers_admitted = 3;
  EXPECT_THROW(CheckOutcome(Workload::kServerFarm, o), std::runtime_error);
  o.producers_admitted = 4;
  o.consumed_bytes = 0;
  EXPECT_THROW(CheckOutcome(Workload::kServerFarm, o), std::runtime_error);
}

// --- The stream-cap guard ----------------------------------------------------------------

TEST(StreamGuardTest, FiresWhenTheCapBinds) {
  realrate::ArrivalConfig config = WebFarmParamsFor(5, Duration::Seconds(1)).arrivals;
  config.max_requests = 1000;  // About 12k arrive in a second.
  EXPECT_THROW(GenerateCheckedStream(config, Duration::Seconds(1)), std::runtime_error);
}

TEST(StreamGuardTest, FiresWhenTheStreamStopsShortOfTheHorizon) {
  realrate::ArrivalConfig config = WebFarmParamsFor(5, Duration::Seconds(1)).arrivals;
  config.load_curve = {{Duration::Zero(), 1.0}, {Duration::Millis(900), 0.0}};
  EXPECT_THROW(GenerateCheckedStream(config, Duration::Seconds(1)), std::runtime_error);
}

TEST(StreamGuardTest, SizedStreamsCoverTheirHorizon) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Duration horizon = Duration::Seconds(5);
    const realrate::ArrivalConfig web = WebFarmParamsFor(seed, horizon).arrivals;
    const realrate::ArrivalConfig cluster = Cluster16ParamsFor(seed, horizon).farm.arrivals;
    EXPECT_NO_THROW(GenerateCheckedStream(web, horizon));
    EXPECT_NO_THROW(GenerateCheckedStream(cluster, horizon));
    // The library's default cap would truncate the benchmark's long horizons.
    EXPECT_GT(StreamCapFor(cluster.requests_per_sec, DefaultHorizon(Workload::kCluster16)),
              int64_t{1'000'000});
  }
}

// --- The timing decorator ------------------------------------------------------------------

// Records every call with its arguments; returns distinctive values. The record
// is mutable so that the const RoundCycleBound can write it too.
class RecordingScheduler final : public realrate::Scheduler {
 public:
  mutable std::vector<std::string> calls;
  mutable const SimThread* last_thread = nullptr;
  int64_t last_count = 0;
  mutable Cycles last_cycles = 0;
  TimePoint last_now;
  SimThread* next_pick = nullptr;

  const char* name() const override { return "recording"; }
  void AddThread(SimThread* t) override { Note("AddThread", t); }
  void RemoveThread(SimThread* t) override { Note("RemoveThread", t); }
  void OnTick(TimePoint now) override {
    Note("OnTick", nullptr);
    last_now = now;
  }
  void OnTicksSkipped(int64_t count, TimePoint now) override {
    Note("OnTicksSkipped", nullptr);
    last_count = count;
    last_now = now;
  }
  SimThread* PickNext(TimePoint now) override {
    Note("PickNext", nullptr);
    last_now = now;
    return next_pick;
  }
  Cycles MaxGrant(SimThread* t, Cycles tick_remaining) override {
    Note("MaxGrant", t);
    last_cycles = tick_remaining;
    return tick_remaining - 1;
  }
  Cycles RoundCycleBound(const SimThread* t, Cycles tick_cycles) const override {
    Note("RoundCycleBound", t);
    last_cycles = tick_cycles;
    return tick_cycles / 2;
  }
  void OnRan(SimThread* t, Cycles used, TimePoint now) override {
    Note("OnRan", t);
    last_cycles = used;
    last_now = now;
  }
  std::optional<TimePoint> ThrottleUntil(SimThread* t, TimePoint now) override {
    Note("ThrottleUntil", t);
    return now + Duration::Millis(3);
  }
  void OnWake(SimThread* t, TimePoint now) override {
    Note("OnWake", t);
    last_now = now;
  }
  void OnBlock(SimThread* t, TimePoint now) override {
    Note("OnBlock", t);
    last_now = now;
  }

 private:
  void Note(const char* call, const SimThread* t) const {
    calls.emplace_back(call);
    last_thread = t;
  }
};

TEST(TimedSchedulerTest, ForwardsEveryVirtual) {
  realrate::ThreadRegistry registry;
  SimThread* t = registry.Create("t", std::make_unique<realrate::CpuHogWork>());
  RecordingScheduler inner;
  LayerTracer tracer;
  TimedScheduler timed(inner, tracer);
  const TimePoint now = TimePoint::FromNanos(7'000'000);

  tracer.StartRun();
  EXPECT_STREQ(timed.name(), "recording");
  timed.AddThread(t);
  EXPECT_EQ(inner.last_thread, t);
  timed.OnTick(now);
  EXPECT_EQ(inner.last_now, now);
  timed.OnTicksSkipped(5, now);
  EXPECT_EQ(inner.last_count, 5);
  inner.next_pick = t;
  EXPECT_EQ(timed.PickNext(now), t);
  inner.next_pick = nullptr;
  EXPECT_EQ(timed.PickNext(now), nullptr);
  EXPECT_EQ(timed.MaxGrant(t, 100), 99);
  EXPECT_EQ(inner.last_cycles, 100);
  timed.OnRan(t, 42, now);  // Closes the task span MaxGrant opened.
  EXPECT_EQ(inner.last_cycles, 42);
  EXPECT_EQ(timed.ThrottleUntil(t, now), now + Duration::Millis(3));
  EXPECT_EQ(timed.RoundCycleBound(t, 80), 40);
  EXPECT_EQ(inner.last_cycles, 80);
  timed.OnWake(t, now);
  timed.OnBlock(t, now);
  timed.RemoveThread(t);
  tracer.StopRun();

  const std::vector<std::string> expected = {
      "AddThread", "OnTick",        "OnTicksSkipped",  "PickNext", "PickNext",
      "MaxGrant",  "OnRan",         "ThrottleUntil",   "RoundCycleBound",
      "OnWake",    "OnBlock",       "RemoveThread"};
  EXPECT_EQ(inner.calls, expected);
  EXPECT_EQ(tracer.stats(Layer::kSchedPick).calls, 2);
  EXPECT_EQ(tracer.null_picks, 1);
  EXPECT_EQ(tracer.stats(Layer::kSchedOnTick).calls, 2);
  EXPECT_EQ(tracer.ticks_skipped, 5);
  EXPECT_EQ(tracer.stats(Layer::kTaskRun).calls, 1);
  // name, AddThread, MaxGrant, OnRan, ThrottleUntil, RoundCycleBound, OnWake,
  // OnBlock, RemoveThread.
  EXPECT_EQ(tracer.stats(Layer::kSchedAccounting).calls, 9);
}

TEST(LayerTracerTest, SpansNestAndSelfTimeExcludesChildren) {
  const TracerCosts costs{.read_ns = 10, .open_ns = 4, .close_ns = 6};
  LayerTracer tracer(costs);
  tracer.StartRun();
  tracer.Enter(Layer::kCoreRunOnce);
  tracer.Enter(Layer::kSchedOnTick);
  tracer.Exit(Layer::kSchedOnTick);
  tracer.Exit(Layer::kCoreRunOnce);
  tracer.StopRun();
  EXPECT_EQ(tracer.stats(Layer::kCoreRunOnce).calls, 1);
  EXPECT_EQ(tracer.stats(Layer::kSchedOnTick).calls, 1);
  // Two spans, plus half a read each at the window's start and stop.
  EXPECT_EQ(tracer.tracer_ns(), 2 * costs.SpanNs() + costs.read_ns);
  EXPECT_EQ(tracer.SelfNsTotal() + tracer.residual_ns() + tracer.tracer_ns(), tracer.wall_ns());

  // A Switch hands over at one clock reading, so it saves one read per hand-off.
  LayerTracer switched(costs);
  switched.StartRun();
  switched.Enter(Layer::kSchedAccounting);
  switched.Switch(Layer::kSchedAccounting, Layer::kTaskRun);
  switched.Switch(Layer::kTaskRun, Layer::kSchedAccounting);
  switched.Exit(Layer::kSchedAccounting);
  switched.StopRun();
  EXPECT_EQ(switched.stats(Layer::kSchedAccounting).calls, 2);
  EXPECT_EQ(switched.stats(Layer::kTaskRun).calls, 1);
  // Three spans, less the two reads the hand-offs share, plus the two half reads.
  EXPECT_EQ(switched.tracer_ns(), 3 * costs.SpanNs() - 2 * costs.read_ns + costs.read_ns);
  EXPECT_EQ(switched.SelfNsTotal() + switched.residual_ns() + switched.tracer_ns(),
            switched.wall_ns());

  LayerTracer broken;
  broken.StartRun();
  broken.Enter(Layer::kSchedPick);
  broken.Exit(Layer::kTaskRun);
  EXPECT_THROW(broken.StopRun(), std::logic_error);
}

TEST(LayerTracerTest, SharesAndResidualAddUpToTheTracedWall) {
  LayerTracer tracer(LayerTracer::Calibrate());
  ASSERT_GT(tracer.costs().read_ns, 0);
  const Outcome o = RunRig(Workload::kWebFarm, 99, Duration::Seconds(1), &tracer);
  ASSERT_GT(o.served, 0);
  ASSERT_GT(tracer.wall_ns(), 0);
  // Exact in integer nanoseconds...
  EXPECT_EQ(tracer.SelfNsTotal() + tracer.residual_ns() + tracer.tracer_ns(), tracer.wall_ns());
  EXPECT_GT(tracer.tracer_ns(), 0);
  // ...and as reported shares.
  double total = 0.0;
  for (const Share& s : LayerShares(tracer)) {
    EXPECT_GE(s.share, 0.0) << s.name;
    total += s.share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (int i = 0; i < kNumLayers; ++i) {
    EXPECT_GT(tracer.stats(static_cast<Layer>(i)).calls, 0) << LayerName(static_cast<Layer>(i));
  }
  // A task span runs between MaxGrant and OnRan for every pick the tick's cycles
  // can still pay a context switch for.
  EXPECT_LE(tracer.stats(Layer::kTaskRun).calls,
            tracer.stats(Layer::kSchedPick).calls - tracer.null_picks);
}

// --- Report helpers ----------------------------------------------------------------------

TEST(ReportTest, HistogramPercentilesWithinOnePercent) {
  DurationHistogram h;
  for (int64_t v = 1; v <= 100'000; ++v) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 100'000);
  EXPECT_NEAR(h.Percentile(50.0), 50'000.0, 500.0);
  EXPECT_NEAR(h.Percentile(99.0), 99'000.0, 990.0);
  EXPECT_EQ(h.Percentile(0.0001), 1.0);
  for (int b = 0; b < 3000; ++b) {
    EXPECT_EQ(DurationHistogram::BucketOf(DurationHistogram::BucketLow(b)), b);
    EXPECT_EQ(DurationHistogram::BucketOf(DurationHistogram::BucketHigh(b) - 1), b);
  }
}

TEST(ReportTest, ResultJsonShape) {
  EXPECT_EQ(ResultJson(true, 3, 0, {{"setup_s", 0.5, "s"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

}  // namespace
}  // namespace perfbench
