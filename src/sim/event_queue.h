// The timer queue both executors run on: the simulator's virtual clock
// and the TCP node's monotonic clock.
//
// A binary heap of {time, seq, slot} entries over a slab of callback
// slots with a free list. Events fire in (time, seq) order, so ties go to
// the earlier schedule. An EventId carries the slot and the low 32 bits
// of the seq the slot was filled under, so an id whose event fired or was
// cancelled never matches the slot again, even once it is reused.
// Cancelling frees the slot at once and leaves a stale heap entry that is
// dropped when it surfaces: the slab never outgrows the peak pending count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "sim/executor.h"

namespace repro::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventId push(SimTime t, Callback cb) {
    std::uint32_t slot;
    if (free_.empty()) {
      REPRO_ASSERT_MSG(slots_.size() < kSlotMask, "event slab full");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    const std::uint64_t seq = next_seq_++;
    slots_[slot] = Slot{std::move(cb), seq};
    heap_.push_back(Entry{t, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++pending_;
    return (seq << 32) | (slot + 1);  // slot + 1: never kInvalidEvent
  }

  /// No-op for fired, cancelled, running or unknown ids.
  void cancel(EventId id) {
    const std::uint64_t slot = (id & kSlotMask) - 1;
    if (slot >= slots_.size() || slots_[slot].seq == 0) return;
    if ((slots_[slot].seq & kSlotMask) == id >> 32) release(static_cast<std::uint32_t>(slot));
  }

  /// Time of the earliest pending event, or kSimTimeNever. Drops the
  /// cancelled entries at the head of the heap on the way.
  SimTime next_time() {
    for (; !heap_.empty(); pop_entry()) {
      if (slots_[heap_.front().slot].seq == heap_.front().seq) return heap_.front().time;
    }
    return kSimTimeNever;
  }

  /// Removes the earliest pending event and returns its callback; call
  /// only after next_time() found one. The slot is free before the
  /// callback runs, so the callback cannot cancel itself.
  Callback pop() {
    REPRO_ASSERT(next_time() != kSimTimeNever);
    const std::uint32_t slot = heap_.front().slot;
    pop_entry();
    Callback cb = std::move(slots_[slot].cb);
    release(slot);
    return cb;
  }

  std::size_t pending() const { return pending_; }
  /// Callback slots allocated: the peak number of events pending at once.
  std::size_t slab_capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint64_t kSlotMask = 0xffffffffu;

  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Callback cb;
    std::uint64_t seq = 0;  ///< 0 = free
  };

  /// Heap order: true if `a` fires after `b`.
  static bool later(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
  void pop_entry() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  void release(std::uint32_t slot) {
    slots_[slot] = Slot{};
    free_.push_back(slot);
    --pending_;
  }

  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace repro::sim
