#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace realrate {

EventId EventQueue::Push(TimePoint when, Callback fn) {
  RR_EXPECTS(fn != nullptr);
  RR_CHECK(next_seq_ <= kMaxSeq);
  EventId slot;
  if (free_slots_.empty()) {
    RR_CHECK(slots_.size() <= kSlotMask);
    slot = slots_.size();
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].live_id = id;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{when.nanos(), id});
  SiftUp(heap_.size() - 1);
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // Only the live occupant's id matches its slot: a fired, unknown, or
  // already-cancelled id is rejected outright, even if the slot was reused since.
  if (!IsLive(id)) {
    return false;
  }
  FreeSlot(id);
  return true;
}

EventId EventQueue::Resched(EventId id, TimePoint when, Callback fn) {
  Cancel(id);  // Tolerates a stale id: the common "clock already fired" race.
  return Push(when, std::move(fn));
}

void EventQueue::FreeSlot(EventId id) {
  Slot& slot = slots_[id & kSlotMask];
  slot.live_id = kInvalidEventId;
  slot.fn = nullptr;  // Releases the callback's captures now, not when skimmed.
  free_slots_.push_back(static_cast<uint32_t>(id & kSlotMask));
}

void EventQueue::SiftUp(size_t i) {
  const Entry moving = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(moving, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const Entry moving = heap_[i];
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    const size_t end = std::min(first + 4, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], moving)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void EventQueue::PopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
}

void EventQueue::SkimStale() {
  while (!heap_.empty() && !IsLive(heap_.front().id)) {
    PopTop();
  }
}

TimePoint EventQueue::PeekTime() {
  SkimStale();
  RR_EXPECTS(!heap_.empty());
  return TimePoint::FromNanos(heap_.front().when_ns);
}

EventId EventQueue::PeekId() {
  SkimStale();
  RR_EXPECTS(!heap_.empty());
  return heap_.front().id;
}

EventQueue::Popped EventQueue::Pop() {
  SkimStale();
  RR_EXPECTS(!heap_.empty());
  const Entry top = heap_.front();
  PopTop();
  Popped out{top.id, TimePoint::FromNanos(top.when_ns),
             std::move(slots_[top.id & kSlotMask].fn)};
  FreeSlot(top.id);
  return out;
}

}  // namespace realrate
