// Deterministic discrete-event simulation core.
//
// Every run of an experiment is a pure function of (config, seed): the
// event queue orders by (virtual time, insertion sequence), so ties are
// resolved deterministically, and nothing in the stack reads wall-clock
// time. Replicas, timers and the network all schedule through this one
// queue.
#pragma once

#include <cstdint>
#include <functional>

#include "common/assert.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/executor.h"

namespace repro::sim {

class Simulation final : public IExecutor {
 public:
  using Callback = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const override { return now_; }

  /// Schedule a callback at absolute virtual time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb) override {
    REPRO_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    return queue_.push(t, std::move(cb));
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is
  /// a no-op (timers race with their own firing in protocol code).
  void cancel(EventId id) override { queue_.cancel(id); }

  /// Run the next pending event. Returns false if the queue is empty.
  bool step() { return fire_next(kSimTimeNever); }

  /// Run all events with time <= deadline; afterwards now() == deadline
  /// (even if the queue drained early). Returns events executed.
  std::size_t run_until(SimTime deadline) {
    std::size_t count = 0;
    while (fire_next(deadline)) ++count;
    if (now_ < deadline) now_ = deadline;
    return count;
  }

  /// Run until the queue drains or `max_events` executed.
  std::size_t run(std::size_t max_events = SIZE_MAX) {
    std::size_t count = 0;
    while (count < max_events && fire_next(kSimTimeNever)) ++count;
    return count;
  }

  bool idle() const { return queue_.pending() == 0; }
  std::size_t pending() const { return queue_.pending(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  /// Fires the earliest pending event if it is due by `deadline`.
  bool fire_next(SimTime deadline) {
    if (queue_.pending() == 0) return false;
    const SimTime t = queue_.next_time();
    if (t > deadline) return false;
    Callback cb = queue_.pop();
    now_ = t;
    ++executed_;
    cb();
    return true;
  }

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
};

}  // namespace repro::sim
