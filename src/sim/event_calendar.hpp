#pragma once

/// \file event_calendar.hpp
/// Minimal discrete-event simulation kernel: a time-ordered calendar of
/// callbacks.  Events at equal times run in scheduling order (stable).
///
/// The simulator is intentionally independent of the analysis code: it
/// shares only the Time type and the system description, so that
/// simulation results can falsify the analytic bounds without sharing
/// their assumptions.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/time.hpp"

namespace hem::sim {

class EventCalendar {
 public:
  using Handler = std::function<void()>;

  /// Schedule `h` at absolute time `t` (>= now).
  void at(Time t, Handler h);

  /// Schedule `h` `delay` ticks from now.
  void after(Time delay, Handler h) { at(now_ + delay, std::move(h)); }

  /// Pop and run the earliest event.  Returns false if the calendar is
  /// empty.
  bool step();

  /// Run events until the calendar is empty or the next event is later
  /// than `horizon`.
  void run_until(Time horizon);

  [[nodiscard]] Time now() const noexcept { return now_; }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    Handler h;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0;
};

}  // namespace hem::sim
