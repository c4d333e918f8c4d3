// Priority queue of timestamped events with stable FIFO ordering for equal timestamps
// and O(1) cancellation. The deterministic heart of the simulator.
//
// Layout: a 4-ary min-heap of 16-byte POD entries (when, id) ordered by (when, id),
// plus a slot map that owns the callbacks. An EventId packs the callback's slot
// index into its low kSlotBits and the monotonic issue sequence into the high bits,
// so comparing ids still orders events by insertion — the equal-time FIFO
// tiebreaker — while the slot index is recoverable without a lookup.
//
// Cancellation is generation-stamped: a slot remembers the id of its live occupant,
// so Cancel is a bounds check plus one compare and frees the slot (and its
// callback) at once. The heap entry it leaves behind is stale — its id no longer
// matches its slot — and is skimmed when it surfaces at the top. A fired, cancelled
// or unknown id never matches, so cancelling it is a rejected no-op even after its
// slot has been reused. Empty/PendingCount count the occupied slots. Push and Pop cost
// O(log4 n) entry moves with no per-event allocation or hashing once the heap and
// slot vectors have grown to the high-water mark.
//
// Resched() is the decrease-key-free path for periodic clocks (e.g. the Machine's
// per-core dispatch ticks): it retires the old entry by id and pushes a fresh one,
// leaving one stale heap entry instead of a heap rebuild.
#ifndef REALRATE_SIM_EVENT_QUEUE_H_
#define REALRATE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace realrate {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Enqueues `fn` to run at `when`. Events with equal `when` run in insertion order.
  EventId Push(TimePoint when, Callback fn);

  // Cancels a pending event. Cancelling an already-fired, already-cancelled, or
  // unknown id is a no-op and returns false — also when the id's slot has since
  // been reused by a newer event, which stays pending.
  bool Cancel(EventId id);

  // Cancels `id` (if still pending) and pushes `fn` at `when`, returning the new id.
  // The one-call resched path for periodic clocks: no decrease-key, no heap rebuild —
  // the retired entry becomes a single stale entry skimmed at pop time.
  EventId Resched(EventId id, TimePoint when, Callback fn);

  bool Empty() const { return PendingCount() == 0; }
  // Timestamp of the earliest pending event. Requires !Empty().
  TimePoint PeekTime();
  // Id of the earliest pending event. Requires !Empty(). With PeekTime this lets a
  // caller test "is the head exactly the event I scheduled?" without popping — the
  // parallel engine's round detection (see Simulator::PopExpected).
  EventId PeekId();
  // Removes and returns the earliest pending event. Requires !Empty().
  struct Popped {
    EventId id;
    TimePoint when;
    Callback fn;
  };
  Popped Pop();

  // Number of pending (pushed, not yet fired or cancelled) events. O(1), and exact:
  // stale entries still buried in the heap are not counted.
  size_t PendingCount() const { return slots_.size() - free_slots_.size(); }

 private:
  // 2^24 concurrently pending events (~1 GB of slots) and 2^40 pushes over the
  // queue's lifetime; exceeding either fails an RR_CHECK rather than wrapping.
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  static constexpr EventId kMaxSeq = (EventId{1} << (64 - kSlotBits)) - 1;

  struct Entry {
    int64_t when_ns;
    EventId id;  // Doubles as the FIFO tiebreaker: the sequence is in the high bits.
  };
  struct Slot {
    EventId live_id = kInvalidEventId;  // kInvalidEventId while the slot is free.
    Callback fn;
  };

  static bool Before(const Entry& a, const Entry& b) {
    return a.when_ns < b.when_ns || (a.when_ns == b.when_ns && a.id < b.id);
  }
  // A free slot holds kInvalidEventId, so that id must never count as a match.
  bool IsLive(EventId id) const {
    const EventId slot = id & kSlotMask;
    return id != kInvalidEventId && slot < slots_.size() && slots_[slot].live_id == id;
  }
  void FreeSlot(EventId id);
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopTop();
  // Drops stale entries (cancelled events, whose slot no longer holds their id) from
  // the heap top.
  void SkimStale();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // LIFO, so the hottest slot is reused first.
  EventId next_seq_ = 1;  // Starts at 1 so no issued id equals kInvalidEventId.
};

}  // namespace realrate

#endif  // REALRATE_SIM_EVENT_QUEUE_H_
