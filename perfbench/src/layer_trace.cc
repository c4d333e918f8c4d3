#include "layer_trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

using realrate::Cycles;
using realrate::SimThread;
using realrate::TimePoint;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSchedPick:
      return "sched.pick";
    case Layer::kSchedOnTick:
      return "sched.on_tick";
    case Layer::kSchedAccounting:
      return "sched.accounting";
    case Layer::kTaskRun:
      return "task.run";
    case Layer::kCoreRunOnce:
      return "core.run_once";
    case Layer::kCount:
      break;
  }
  return "?";
}

// --- DurationHistogram -----------------------------------------------------------

int DurationHistogram::BucketOf(int64_t ns) {
  if (ns < kExact) {
    return ns < 0 ? 0 : static_cast<int>(ns);
  }
  const auto v = static_cast<uint64_t>(ns);
  const int e = static_cast<int>(std::bit_width(v)) - 1;  // >= 10.
  const auto sub = static_cast<int>((v >> (e - kSubBits)) & ((1u << kSubBits) - 1));
  return kExact + (e - 10) * (1 << kSubBits) + sub;
}

int64_t DurationHistogram::BucketLow(int bucket) {
  if (bucket < kExact) {
    return bucket;
  }
  const int k = bucket - kExact;
  const int e = 10 + k / (1 << kSubBits);
  const int sub = k % (1 << kSubBits);
  return static_cast<int64_t>((uint64_t{1} << e) + (static_cast<uint64_t>(sub) << (e - kSubBits)));
}

int64_t DurationHistogram::BucketHigh(int bucket) {
  if (bucket < kExact) {
    return bucket + 1;
  }
  const int e = 10 + (bucket - kExact) / (1 << kSubBits);
  return BucketLow(bucket) + (int64_t{1} << (e - kSubBits));
}

void DurationHistogram::Add(int64_t ns) {
  ++counts_[static_cast<size_t>(BucketOf(ns))];
  ++count_;
}

double DurationHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  // Nearest-rank: the smallest value with at least ceil(p% of n) samples at or below.
  const auto rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  int64_t seen = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      const int bucket = static_cast<int>(b);
      if (bucket < kExact) {
        return static_cast<double>(bucket);
      }
      return 0.5 * static_cast<double>(BucketLow(bucket) + BucketHigh(bucket));
    }
  }
  return static_cast<double>(BucketLow(static_cast<int>(counts_.size()) - 1));
}

// --- LayerTracer -------------------------------------------------------------------

int64_t LayerTracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TracerCosts LayerTracer::Calibrate() {
  constexpr int kBatches = 31;
  constexpr int kReps = 1000;
  double read = 1e18, pair = 1e18, span = 1e18;
  LayerTracer probe;
  for (int b = 0; b < kBatches; ++b) {
    const int64_t t0 = NowNs();
    int64_t t = t0;
    for (int i = 0; i < kReps; ++i) {
      t = NowNs();
    }
    read = std::min(read, static_cast<double>(t - t0) / kReps);

    const int64_t wall_before = probe.wall_ns();
    const int64_t self_before = probe.SelfNsTotal();
    probe.StartRun();
    for (int i = 0; i < kReps; ++i) {
      probe.Enter(Layer::kSchedAccounting);
      probe.Exit(Layer::kSchedAccounting);
    }
    probe.StopRun();
    pair = std::min(pair, static_cast<double>(probe.wall_ns() - wall_before) / kReps);
    span = std::min(span, static_cast<double>(probe.SelfNsTotal() - self_before) / kReps);
  }
  // An empty span records half a read + open + half a read; a pair costs two
  // reads + open + close.
  TracerCosts costs;
  costs.read_ns = std::llround(read);
  costs.open_ns = std::max<int64_t>(0, std::llround(span - read));
  costs.close_ns = std::max<int64_t>(0, std::llround(pair - span - read));
  return costs;
}

void LayerTracer::StartRun() {
  if (running_) {
    throw std::logic_error("LayerTracer::StartRun: already running");
  }
  running_ = true;
  run_start_ns_ = NowNs();
  outside_since_ns_ = run_start_ns_;
  Charge(AfterHalf());
}

void LayerTracer::StopRun() {
  const int64_t t = NowNs();
  if (!running_ || !stack_.empty() || unbalanced_) {
    throw std::logic_error("LayerTracer::StopRun: not running, or spans did not nest");
  }
  residual_ns_ += t - outside_since_ns_;
  Charge(BeforeHalf());
  running_ = false;
  wall_ns_ += t - run_start_ns_;
}

void LayerTracer::Charge(int64_t ns) {
  tracer_ns_ += ns;
  if (stack_.empty()) {
    residual_ns_ -= ns;
  } else {
    stack_.back().tracer_ns += ns;
  }
}

void LayerTracer::Open(Layer layer, int64_t t, bool charge_before) {
  if (!running_) {
    return;
  }
  if (stack_.empty()) {
    residual_ns_ += t - outside_since_ns_;
  }
  if (charge_before) {
    Charge(BeforeHalf());
  }
  stack_.push_back(Frame{layer, t, 0, 0});
  Charge(AfterHalf() + costs_.open_ns);
}

void LayerTracer::Close(Layer layer, int64_t t, bool charge_after) {
  if (!running_) {
    return;
  }
  if (stack_.empty() || stack_.back().layer != layer) {
    unbalanced_ = true;
    return;
  }
  Charge(BeforeHalf());
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = t - frame.start_ns;
  // Negative when a call is cheaper than the calibrated costs; the histogram
  // files it under 0, the totals keep it so that the wall identity stays exact.
  const int64_t self = duration - frame.child_ns - frame.tracer_ns;
  LayerStats& s = stats_[static_cast<size_t>(layer)];
  ++s.calls;
  s.self_ns += self;
  s.self_hist.Add(self);
  if (stack_.empty()) {
    outside_since_ns_ = t;
  } else {
    stack_.back().child_ns += duration;
  }
  if (charge_after) {
    Charge(AfterHalf() + costs_.close_ns);
  }
}

void LayerTracer::Enter(Layer layer) { Open(layer, NowNs(), true); }

void LayerTracer::Exit(Layer layer) { Close(layer, NowNs(), true); }

void LayerTracer::Switch(Layer exiting, Layer entering) {
  const int64_t t = NowNs();
  Close(exiting, t, false);
  Open(entering, t, false);
  Charge(costs_.close_ns);  // The exiting span's bookkeeping runs inside the entering one.
}

int64_t LayerTracer::SelfNsTotal() const {
  int64_t total = 0;
  for (const LayerStats& s : stats_) {
    total += s.self_ns;
  }
  return total;
}

// --- TimedScheduler ----------------------------------------------------------------

namespace {

// Times one forwarded call until the end of the scope.
class Span {
 public:
  Span(LayerTracer& tracer, Layer layer) : tracer_(tracer), layer_(layer) { tracer_.Enter(layer_); }
  ~Span() { tracer_.Exit(layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTracer& tracer_;
  Layer layer_;
};

}  // namespace

const char* TimedScheduler::name() const {
  Span span(tracer_, Layer::kSchedAccounting);
  return inner_.name();
}

void TimedScheduler::AddThread(SimThread* thread) {
  Span span(tracer_, Layer::kSchedAccounting);
  inner_.AddThread(thread);
}

void TimedScheduler::RemoveThread(SimThread* thread) {
  Span span(tracer_, Layer::kSchedAccounting);
  inner_.RemoveThread(thread);
}

void TimedScheduler::OnTick(TimePoint now) {
  Span span(tracer_, Layer::kSchedOnTick);
  inner_.OnTick(now);
}

void TimedScheduler::OnTicksSkipped(int64_t count, TimePoint now) {
  tracer_.ticks_skipped += count;
  Span span(tracer_, Layer::kSchedOnTick);
  inner_.OnTicksSkipped(count, now);
}

SimThread* TimedScheduler::PickNext(TimePoint now) {
  Span span(tracer_, Layer::kSchedPick);
  SimThread* pick = inner_.PickNext(now);
  if (pick == nullptr) {
    ++tracer_.null_picks;
  }
  return pick;
}

Cycles TimedScheduler::MaxGrant(SimThread* thread, Cycles tick_remaining) {
  tracer_.Enter(Layer::kSchedAccounting);
  const Cycles grant = inner_.MaxGrant(thread, tick_remaining);
  // The Machine calls WorkModel::Run next and OnRan right after it.
  tracer_.Switch(Layer::kSchedAccounting, Layer::kTaskRun);
  return grant;
}

Cycles TimedScheduler::RoundCycleBound(const SimThread* thread, Cycles tick_cycles) const {
  Span span(tracer_, Layer::kSchedAccounting);
  return inner_.RoundCycleBound(thread, tick_cycles);
}

void TimedScheduler::OnRan(SimThread* thread, Cycles used, TimePoint now) {
  tracer_.Switch(Layer::kTaskRun, Layer::kSchedAccounting);
  inner_.OnRan(thread, used, now);
  tracer_.Exit(Layer::kSchedAccounting);
}

std::optional<TimePoint> TimedScheduler::ThrottleUntil(SimThread* thread, TimePoint now) {
  Span span(tracer_, Layer::kSchedAccounting);
  return inner_.ThrottleUntil(thread, now);
}

void TimedScheduler::OnWake(SimThread* thread, TimePoint now) {
  Span span(tracer_, Layer::kSchedAccounting);
  inner_.OnWake(thread, now);
}

void TimedScheduler::OnBlock(SimThread* thread, TimePoint now) {
  Span span(tracer_, Layer::kSchedAccounting);
  inner_.OnBlock(thread, now);
}

}  // namespace perfbench
