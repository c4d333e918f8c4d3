#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace realrate {
namespace {

TimePoint At(int64_t ms) { return TimePoint::Origin() + Duration::Millis(ms); }

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(At(30), [&] { order.push_back(3); });
  q.Push(At(10), [&] { order.push_back(1); });
  q.Push(At(20), [&] { order.push_back(2); });
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Push(At(10), [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.Push(At(10), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelUnknownIdIsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(999));
}

TEST(EventQueueTest, PeekTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.Push(At(5), [] {});
  q.Push(At(10), [] {});
  q.Cancel(early);
  EXPECT_EQ(q.PeekTime(), At(10));
  EXPECT_EQ(q.PendingCount(), 1u);
}

TEST(EventQueueTest, CancelOfFiredIdIsRejected) {
  // Regression: cancelling an already-fired id used to insert a tombstone that was
  // never reclaimed (the id can never reach the heap top again). The contract says
  // such a cancel is a no-op returning false — repeatedly, not just the first time.
  EventQueue q;
  const EventId id = q.Push(At(1), [] {});
  q.Pop().fn();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(q.Cancel(id));
  }
  // The queue is structurally empty again: a fresh push/pop cycle works and nothing
  // lingers.
  EXPECT_TRUE(q.Empty());
  q.Push(At(2), [] {});
  EXPECT_EQ(q.PendingCount(), 1u);
}

TEST(EventQueueTest, DoubleCancelReturnsFalseSecondTime) {
  EventQueue q;
  const EventId id = q.Push(At(1), [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PendingCountExcludesCancelledBelowHeapTop) {
  // Regression: PendingCount used to skim only the heap top, so a cancelled entry
  // buried under a live earlier event was still counted.
  EventQueue q;
  q.Push(At(10), [] {});
  const EventId buried = q.Push(At(20), [] {});
  const EventId deeper = q.Push(At(30), [] {});
  q.Cancel(buried);
  EXPECT_EQ(q.PendingCount(), 2u);
  q.Cancel(deeper);
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_EQ(q.PeekTime(), At(10));
}

TEST(EventQueueTest, ReschedMovesAnEventInOneCall) {
  // The decrease-key-free resched path: retire the old entry by id, push a fresh
  // one — moving a periodic clock later or earlier without a heap rebuild.
  EventQueue q;
  std::vector<int> order;
  q.Push(At(10), [&] { order.push_back(10); });
  q.Push(At(15), [&] { order.push_back(15); });
  EventId clock = q.Resched(kInvalidEventId, At(20), [&] { order.push_back(20); });
  clock = q.Resched(clock, At(5), [&] { order.push_back(5); });
  EXPECT_EQ(q.PendingCount(), 3u);
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{5, 10, 15}));
}

TEST(EventQueueTest, ReschedOfFiredIdStillSchedules) {
  // The common race: the periodic clock already fired when its owner reschedules it.
  EventQueue q;
  bool first = false;
  bool second = false;
  const EventId id = q.Push(At(1), [&] { first = true; });
  q.Pop().fn();
  q.Resched(id, At(2), [&] { second = true; });
  EXPECT_EQ(q.PendingCount(), 1u);
  q.Pop().fn();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(EventQueueTest, CancelOfInvalidIdLeavesFreeSlotsAlone) {
  // Regression: a free slot holds kInvalidEventId, so a naive slot compare matched
  // Cancel(kInvalidEventId) — the Machine's "no clock armed" Resched — and freed the
  // slot a second time.
  EventQueue q;
  q.Push(At(1), [] {});
  q.Pop();
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_TRUE(q.Empty());
  q.Resched(kInvalidEventId, At(2), [] {});
  q.Resched(kInvalidEventId, At(3), [] {});
  EXPECT_EQ(q.PendingCount(), 2u);
  EXPECT_EQ(q.Pop().when, At(2));
  EXPECT_EQ(q.Pop().when, At(3));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, StaleIdDoesNotCancelItsSlotsNewOccupant) {
  // At most one event is ever pending, so each push lands in the slot its
  // predecessor freed: the old ids must not reach the new occupant.
  EventQueue q;
  const EventId fired = q.Push(At(1), [] {});
  q.Pop();
  bool second_ran = false;
  const EventId second = q.Push(At(2), [&] { second_ran = true; });
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_EQ(q.PeekId(), second);

  EXPECT_TRUE(q.Cancel(second));
  bool third_ran = false;
  const EventId third = q.Push(At(3), [&] { third_ran = true; });
  EXPECT_FALSE(q.Cancel(second));
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_EQ(q.PendingCount(), 1u);
  auto popped = q.Pop();
  EXPECT_EQ(popped.id, third);
  EXPECT_EQ(popped.when, At(3));
  popped.fn();
  EXPECT_TRUE(third_ran);
  EXPECT_FALSE(second_ran);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, EqualTimesAreFifoAcrossReusedSlots) {
  // Free slots in a scrambled order, then push a same-time batch into them: the
  // batch must still pop in insertion order, whatever slots it landed in.
  EventQueue q;
  std::vector<EventId> early;
  for (int i = 0; i < 8; ++i) {
    early.push_back(q.Push(At(1 + i), [] {}));
  }
  for (int i : {5, 1, 7, 3}) {
    EXPECT_TRUE(q.Cancel(early[static_cast<size_t>(i)]));
  }
  q.Pop();  // Fires early[0].
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    q.Push(At(50), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.PendingCount(), 9u);
  while (!q.Empty()) {
    auto popped = q.Pop();
    if (popped.when == At(50)) {
      popped.fn();
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, PeekIdSkipsCancelledHead) {
  EventQueue q;
  const EventId head = q.Push(At(10), [] {});
  const EventId next = q.Push(At(10), [] {});
  EXPECT_EQ(q.PeekId(), head);
  q.Cancel(head);
  EXPECT_EQ(q.PeekId(), next);
  EXPECT_EQ(q.PeekTime(), At(10));
}

TEST(EventQueueTest, ReschedStormKeepsOnePendingEvent) {
  // A periodic clock moved 100k times, alternately later and earlier: every retired
  // entry stays buried in the heap, but only the newest one is pending or fires.
  EventQueue q;
  int fires = 0;
  EventId clock = kInvalidEventId;
  for (int i = 0; i < 100'000; ++i) {
    const int64_t ms = (i % 2 == 0) ? 1'000 + i : 1'000 - (i % 997);
    clock = q.Resched(clock, At(ms), [&fires] { ++fires; });
    ASSERT_EQ(q.PendingCount(), 1u);
  }
  EXPECT_EQ(q.PeekId(), clock);
  q.Pop().fn();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.Cancel(clock));
}

// Reference model for the differential test: the obvious ordered map keyed by
// (when, issue order) plus a map of live ids. Slow and simple on purpose.
class ReferenceQueue {
 public:
  struct Head {
    int64_t when_ns;
    EventId id;
    int tag;
  };

  void Push(EventId id, int64_t when_ns, int tag) {
    const Key key{when_ns, next_seq_++};
    order_.emplace(key, Live{id, tag});
    live_.emplace(id, key);
  }
  bool Cancel(EventId id) {
    auto it = live_.find(id);
    if (it == live_.end()) {
      return false;
    }
    order_.erase(it->second);
    live_.erase(it);
    return true;
  }
  size_t size() const { return live_.size(); }
  Head Peek() const {
    const auto& [key, live] = *order_.begin();
    return Head{key.first, live.id, live.tag};
  }
  Head Pop() {
    const Head head = Peek();
    live_.erase(head.id);
    order_.erase(order_.begin());
    return head;
  }

 private:
  using Key = std::pair<int64_t, uint64_t>;
  struct Live {
    EventId id;
    int tag;
  };
  std::map<Key, Live> order_;
  std::map<EventId, Key> live_;
  uint64_t next_seq_ = 0;
};

TEST(EventQueueTest, MatchesReferenceModelUnderRandomOps) {
  // ~100k mixed operations over a narrow time window (many equal timestamps),
  // cancelling and rescheduling ids drawn from everything ever issued — live,
  // fired, cancelled, and ids whose slot has been reused since.
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    ReferenceQueue ref;
    std::vector<EventId> issued = {kInvalidEventId};
    int fired_tag = -1;
    int next_tag = 0;
    const auto push = [&](EventId old_id, bool resched) {
      const int64_t when_ns = static_cast<int64_t>(rng.NextBounded(32));
      const int tag = next_tag++;
      EventQueue::Callback fn = [&fired_tag, tag] { fired_tag = tag; };
      EventId id;
      if (resched) {
        ref.Cancel(old_id);
        id = q.Resched(old_id, TimePoint::FromNanos(when_ns), std::move(fn));
      } else {
        id = q.Push(TimePoint::FromNanos(when_ns), std::move(fn));
      }
      ASSERT_NE(id, kInvalidEventId);
      ref.Push(id, when_ns, tag);
      issued.push_back(id);
    };
    const auto any_issued = [&] { return issued[rng.NextBounded(issued.size())]; };
    for (int op = 0; op < 35'000; ++op) {
      const uint64_t pick = rng.NextBounded(100);
      if (pick < 35) {
        push(kInvalidEventId, /*resched=*/false);
      } else if (pick < 55) {
        const EventId id = any_issued();
        ASSERT_EQ(q.Cancel(id), ref.Cancel(id)) << "op " << op;
      } else if (pick < 70) {
        push(any_issued(), /*resched=*/true);
      } else if (ref.size() == 0) {
        ASSERT_TRUE(q.Empty()) << "op " << op;
      } else if (pick < 77) {
        ASSERT_EQ(q.PeekTime().nanos(), ref.Peek().when_ns) << "op " << op;
      } else if (pick < 84) {
        ASSERT_EQ(q.PeekId(), ref.Peek().id) << "op " << op;
      } else {
        const ReferenceQueue::Head want = ref.Pop();
        auto got = q.Pop();
        ASSERT_EQ(got.id, want.id) << "op " << op;
        ASSERT_EQ(got.when.nanos(), want.when_ns) << "op " << op;
        got.fn();
        ASSERT_EQ(fired_tag, want.tag) << "op " << op;
      }
      ASSERT_EQ(q.PendingCount(), ref.size()) << "op " << op;
      ASSERT_EQ(q.Empty(), ref.size() == 0) << "op " << op;
    }
    while (ref.size() > 0) {
      ASSERT_EQ(q.Pop().id, ref.Pop().id);
    }
    EXPECT_TRUE(q.Empty());
  }
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<int64_t> seen;
  sim.ScheduleAt(At(5), [&] { seen.push_back(sim.Now().nanos()); });
  sim.ScheduleAt(At(15), [&] { seen.push_back(sim.Now().nanos()); });
  sim.RunUntil(At(20));
  EXPECT_EQ(sim.Now(), At(20));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], At(5).nanos());
  EXPECT_EQ(seen[1], At(15).nanos());
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  bool late_ran = false;
  sim.ScheduleAt(At(50), [&] { late_ran = true; });
  sim.RunUntil(At(40));
  EXPECT_FALSE(late_ran);
  const Simulator& observer = sim;
  EXPECT_EQ(observer.pending_events(), 1u);
  sim.RunUntil(At(60));
  EXPECT_TRUE(late_ran);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  int fires = 0;
  std::function<void()> chain = [&] {
    if (++fires < 5) {
      sim.ScheduleAfter(Duration::Millis(1), chain);
    }
  };
  sim.ScheduleAfter(Duration::Millis(1), chain);
  sim.RunFor(Duration::Millis(10));
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, PopExpectedSkipsCancelledHead) {
  Simulator sim;
  bool ran = false;
  const EventId head = sim.ScheduleAt(At(10), [&] { ran = true; });
  const EventId next = sim.ScheduleAt(At(10), [&] { ran = true; });
  sim.Cancel(head);
  EXPECT_FALSE(sim.PopExpected(head, At(10)));
  EXPECT_TRUE(sim.PopExpected(next, At(10)));
  EXPECT_FALSE(ran);  // Consumed, not run.
  EXPECT_EQ(sim.Now(), At(10));
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAfter(Duration::Millis(1), [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(CpuTest, CycleDurationRoundTrip) {
  Cpu cpu(CpuConfig{.clock_hz = 400e6});
  EXPECT_EQ(cpu.DurationToCycles(Duration::Millis(1)), 400'000);
  EXPECT_EQ(cpu.CyclesToDuration(400'000), Duration::Millis(1));
}

TEST(CpuTest, DispatchCostGrowsWithFrequency) {
  Cpu cpu(CpuConfig{});
  EXPECT_LT(cpu.DispatchCostAt(100), cpu.DispatchCostAt(1000));
  EXPECT_LT(cpu.DispatchCostAt(1000), cpu.DispatchCostAt(10000));
}

TEST(CpuTest, ControllerCostIsLinearInThreads) {
  Cpu cpu(CpuConfig{});
  const Cycles c0 = cpu.ControllerCost(0);
  const Cycles c1 = cpu.ControllerCost(1);
  const Cycles c40 = cpu.ControllerCost(40);
  EXPECT_EQ(c40 - c0, 40 * (c1 - c0));
  EXPECT_EQ(c0, cpu.config().controller_fixed_cycles);
}

TEST(CpuTest, ChargeAccumulatesPerCategory) {
  Cpu cpu(CpuConfig{});
  cpu.Charge(CpuUse::kUser, 100);
  cpu.Charge(CpuUse::kUser, 50);
  cpu.Charge(CpuUse::kDispatch, 10);
  EXPECT_EQ(cpu.Used(CpuUse::kUser), 150);
  EXPECT_EQ(cpu.Used(CpuUse::kDispatch), 10);
  EXPECT_EQ(cpu.TotalUsed(), 160);
  cpu.ResetAccounting();
  EXPECT_EQ(cpu.TotalUsed(), 0);
}

TEST(TraceTest, CountsByKindAndThread) {
  TraceRecorder trace;
  trace.SetEnabled(true);
  trace.Record(At(1), TraceKind::kDispatch, 0);
  trace.Record(At(2), TraceKind::kDispatch, 1);
  trace.Record(At(3), TraceKind::kBlock, 0);
  EXPECT_EQ(trace.Count(TraceKind::kDispatch), 2);
  EXPECT_EQ(trace.Count(TraceKind::kDispatch, 0), 1);
  EXPECT_EQ(trace.Count(TraceKind::kBlock, 1), 0);
}

TEST(TraceTest, DisabledRecorderStaysEmpty) {
  TraceRecorder trace;
  trace.Record(At(1), TraceKind::kDispatch, 0);
  EXPECT_TRUE(trace.events().empty());
}

TEST(TraceTest, HashDistinguishesSchedules) {
  TraceRecorder a;
  TraceRecorder b;
  a.SetEnabled(true);
  b.SetEnabled(true);
  a.Record(At(1), TraceKind::kDispatch, 0, 100);
  b.Record(At(1), TraceKind::kDispatch, 0, 101);
  EXPECT_NE(a.Hash(), b.Hash());
  TraceRecorder c;
  c.SetEnabled(true);
  c.Record(At(1), TraceKind::kDispatch, 0, 100);
  EXPECT_EQ(a.Hash(), c.Hash());
}

}  // namespace
}  // namespace realrate
