// Per-layer wall-time accounting for the traced run, recorded entirely from the
// benchmark's side of the library's public interfaces.
//
// A LayerTracer keeps a stack of open spans. Each span's self time (its duration
// minus the time its nested spans cover) is charged to its layer, and the time
// spent outside every span is charged to the residual. The tracer's own cost is
// taken out of both and charged to a separate tracer bucket, using calibrated
// TracerCosts: each clock reading is split half to the frame open before it and
// half to the frame open after it; the bookkeeping that follows a reading (for
// opening or closing a span) is charged to the frame open while it runs. So
//
//   an empty span contains   half a read + open bookkeeping + half a read,
//   and costs its enclosing frame   half a read + half a read + close bookkeeping,
//
// exactly what the calibration measures, and
//
//     sum over layers of self time + residual + tracer == traced wall time
//
// holds exactly (integer nanoseconds from one steady clock, each boundary read
// once). The residual is everything the simulator does between the timed calls:
// the event queue, the tick prologue, idle fast-forward catch-up, the request
// injector and trace folding.
//
// TimedScheduler is the seam: a forwarding Scheduler placed between a Machine and
// each core's RbsScheduler. The work model's Run has no seam of its own; its span
// (the task layer) runs from MaxGrant's return to OnRan's entry, which is exactly
// the Machine's call into WorkModel::Run plus its two-line bookkeeping.
#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

enum class Layer : int {
  kSchedPick = 0,     // Scheduler::PickNext.
  kSchedOnTick,       // Scheduler::OnTick and OnTicksSkipped.
  kSchedAccounting,   // MaxGrant, OnRan, ThrottleUntil, OnWake, OnBlock, and the rare
                      // membership calls (AddThread, RemoveThread, RoundCycleBound, name).
  kTaskRun,           // MaxGrant's return to OnRan's entry: WorkModel::Run.
  kCoreRunOnce,       // FeedbackAllocator::RunOnce.
  kCount,
};

inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

const char* LayerName(Layer layer);

// The tracer's own costs, nanoseconds (see LayerTracer).
struct TracerCosts {
  int64_t read_ns = 0;   // One steady-clock reading.
  int64_t open_ns = 0;   // Span bookkeeping after the reading that opens a span.
  int64_t close_ns = 0;  // Span bookkeeping after the reading that closes a span.

  int64_t SpanNs() const { return 2 * read_ns + open_ns + close_ns; }
};

// Log-bucketed histogram of non-negative nanosecond values: exact below 1024,
// then 128 sub-buckets per power of two (under 1% relative error).
class DurationHistogram {
 public:
  void Add(int64_t ns);
  int64_t count() const { return count_; }
  // The p-th percentile (0 < p <= 100) as the bucket's midpoint; 0 when empty.
  double Percentile(double p) const;

  static int BucketOf(int64_t ns);
  static int64_t BucketLow(int bucket);
  static int64_t BucketHigh(int bucket);  // Exclusive.

 private:
  static constexpr int kExact = 1024;
  static constexpr int kSubBits = 7;
  static constexpr int kBuckets = kExact + (63 - 10 + 1) * (1 << kSubBits);
  std::vector<int64_t> counts_ = std::vector<int64_t>(kBuckets, 0);
  int64_t count_ = 0;
};

struct LayerStats {
  int64_t calls = 0;
  int64_t self_ns = 0;
  DurationHistogram self_hist;  // Per-call self time.
};

class LayerTracer {
 public:
  // Zero costs leave the tracer's cost inside the spans and the residual.
  explicit LayerTracer(TracerCosts costs = {}) : costs_(costs) {}

  // Measures this host's TracerCosts: back-to-back clock readings, and empty
  // Enter/Exit pairs in a scratch tracer (their wall per pair and their recorded
  // self time per span). Each is the minimum over batches, because host noise
  // only ever adds time, and the tracer must not charge more than it costs.
  static TracerCosts Calibrate();

  // Opens the traced wall-time window. Calls outside it (construction, harvest)
  // are forwarded untimed.
  void StartRun();
  // Closes the window. Throws std::logic_error if a span is still open or spans
  // did not nest.
  void StopRun();

  void Enter(Layer layer);
  void Exit(Layer layer);
  // Closes `exiting` and opens `entering` at one clock reading, so no time falls
  // between them (the task span's hand-offs with MaxGrant and OnRan).
  void Switch(Layer exiting, Layer entering);

  const LayerStats& stats(Layer layer) const { return stats_[static_cast<size_t>(layer)]; }
  int64_t wall_ns() const { return wall_ns_; }
  int64_t residual_ns() const { return residual_ns_; }
  // The tracer's own cost inside the traced wall, as charged from `costs`.
  int64_t tracer_ns() const { return tracer_ns_; }
  const TracerCosts& costs() const { return costs_; }
  int64_t SelfNsTotal() const;

  // Counters the decorator records alongside the spans.
  int64_t null_picks = 0;
  int64_t ticks_skipped = 0;

  static int64_t NowNs();

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    int64_t tracer_ns;  // Tracer charges taken out of this frame's self time.
  };
  // `charge_before`/`charge_after` are false for the reading a Switch shares.
  void Open(Layer layer, int64_t t, bool charge_before);
  void Close(Layer layer, int64_t t, bool charge_after);
  // Moves `ns` from the innermost open frame (or the residual) to the tracer bucket.
  void Charge(int64_t ns);
  int64_t BeforeHalf() const { return costs_.read_ns / 2; }
  int64_t AfterHalf() const { return costs_.read_ns - costs_.read_ns / 2; }

  TracerCosts costs_;

  std::array<LayerStats, kNumLayers> stats_{};
  std::vector<Frame> stack_;
  bool running_ = false;
  bool unbalanced_ = false;
  int64_t run_start_ns_ = 0;
  int64_t outside_since_ns_ = 0;  // End of the last top-level span.
  int64_t residual_ns_ = 0;
  int64_t tracer_ns_ = 0;
  int64_t wall_ns_ = 0;
};

// Forwards every Scheduler virtual to `inner`, timing each call into `tracer`.
class TimedScheduler final : public realrate::Scheduler {
 public:
  TimedScheduler(realrate::Scheduler& inner, LayerTracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  const char* name() const override;
  void AddThread(realrate::SimThread* thread) override;
  void RemoveThread(realrate::SimThread* thread) override;
  void OnTick(realrate::TimePoint now) override;
  void OnTicksSkipped(int64_t count, realrate::TimePoint now) override;
  realrate::SimThread* PickNext(realrate::TimePoint now) override;
  realrate::Cycles MaxGrant(realrate::SimThread* thread, realrate::Cycles tick_remaining) override;
  realrate::Cycles RoundCycleBound(const realrate::SimThread* thread,
                                   realrate::Cycles tick_cycles) const override;
  void OnRan(realrate::SimThread* thread, realrate::Cycles used, realrate::TimePoint now) override;
  std::optional<realrate::TimePoint> ThrottleUntil(realrate::SimThread* thread,
                                                   realrate::TimePoint now) override;
  void OnWake(realrate::SimThread* thread, realrate::TimePoint now) override;
  void OnBlock(realrate::SimThread* thread, realrate::TimePoint now) override;

 private:
  realrate::Scheduler& inner_;
  LayerTracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_
