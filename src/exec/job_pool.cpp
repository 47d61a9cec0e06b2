#include "exec/job_pool.hpp"

#include <condition_variable>
#include <mutex>
#include <utility>

namespace hem::exec {

using steady = std::chrono::steady_clock;

struct JobPool::Sync {
  std::mutex mx;
  std::condition_variable cv;
};

JobPool::JobPool(int width, long grace_ms, std::function<void(const std::string&)> log)
    : width_(width < 1 ? 1 : width),
      grace_ms_(grace_ms < 0 ? 0 : grace_ms),
      log_(std::move(log)),
      sync_(std::make_shared<Sync>()) {
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

JobPool::~JobPool() {
  cancel_all(CancelReason::kShutdown, /*escalate=*/true);
  // Drain: workers either honour the shutdown cancel or get abandoned by
  // the watchdog once the grace period runs out, so this terminates.  An
  // empty pool returns at once instead of sleeping out one wait step.
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(sync_->mx);
      if (active_.empty()) break;
    }
    (void)wait_terminal(std::chrono::milliseconds(50));
  }
  {
    std::lock_guard<std::mutex> lk(sync_->mx);
    stop_watchdog_ = true;
  }
  sync_->cv.notify_all();
  watchdog_.join();
}

std::size_t JobPool::running() const {
  std::lock_guard<std::mutex> lk(sync_->mx);
  std::size_t n = 0;
  for (const Handle& h : active_)
    if (h->phase == Slot::kRunning) ++n;
  return n;
}

JobPool::Handle JobPool::start(std::string label, long budget_ms, std::shared_ptr<void> context,
                               std::function<void(const CancelToken&)> work,
                               std::function<void()> kill) {
  auto slot = std::make_shared<Slot>();
  slot->label = std::move(label);
  slot->budget_ms = budget_ms;
  slot->context = std::move(context);
  slot->kill = std::move(kill);
  slot->started = steady::now();
  const std::shared_ptr<Sync> sync = sync_;
  {
    std::lock_guard<std::mutex> lk(sync->mx);
    slot->id = next_id_++;
    // The worker captures only shared state (sync block + its own slot), so
    // it stays safe after abandonment outlives the pool.
    slot->worker = std::thread([sync, slot, fn = std::move(work)] {
      try {
        fn(slot->token);
      } catch (...) {
        // The work callable promised not to throw; keep the pool alive
        // anyway — the caller sees a job with whatever outcome its context
        // carries (typically "no outcome written" = failure).
      }
      std::lock_guard<std::mutex> guard(sync->mx);
      if (slot->phase == Slot::kRunning) slot->phase = Slot::kFinished;
      sync->cv.notify_all();
    });
    active_.push_back(slot);
  }
  sync->cv.notify_all();
  return slot;
}

void JobPool::cancel(const Handle& handle, CancelReason reason, bool escalate) {
  if (!handle) return;
  handle->token.cancel(reason);
  std::lock_guard<std::mutex> lk(sync_->mx);
  if (escalate && handle->phase == Slot::kRunning && !handle->soft_cancelled) {
    handle->soft_cancelled = true;
    handle->soft_cancel_at = steady::now();
  }
  sync_->cv.notify_all();
}

void JobPool::cancel_all(CancelReason reason, bool escalate) {
  std::vector<Handle> snapshot;
  {
    std::lock_guard<std::mutex> lk(sync_->mx);
    snapshot = active_;
  }
  for (const Handle& h : snapshot) cancel(h, reason, escalate);
}

std::vector<JobPool::Handle> JobPool::wait_terminal(std::chrono::milliseconds timeout) {
  std::vector<Handle> terminal;
  {
    std::unique_lock<std::mutex> lk(sync_->mx);
    const auto has_terminal = [this] {
      for (const Handle& h : active_)
        if (h->phase != Slot::kRunning) return true;
      return false;
    };
    if (!has_terminal()) sync_->cv.wait_for(lk, timeout, has_terminal);
    for (auto it = active_.begin(); it != active_.end();) {
      if ((*it)->phase == Slot::kRunning) {
        ++it;
        continue;
      }
      terminal.push_back(*it);
      it = active_.erase(it);
    }
  }
  // Join/detach outside the lock: a finishing worker's last step is to take
  // the lock and set its phase, so joining under the lock could deadlock.
  for (const Handle& h : terminal) {
    if (h->phase == Slot::kAbandoned)
      h->worker.detach();
    else
      h->worker.join();
  }
  return terminal;
}

long JobPool::watchdog_cancels() const {
  std::lock_guard<std::mutex> lk(sync_->mx);
  return watchdog_cancels_;
}

long JobPool::watchdog_kills() const {
  std::lock_guard<std::mutex> lk(sync_->mx);
  return watchdog_kills_;
}

long JobPool::abandoned() const {
  std::lock_guard<std::mutex> lk(sync_->mx);
  return abandoned_;
}

void JobPool::watchdog_loop() {
  std::unique_lock<std::mutex> lk(sync_->mx);
  while (!stop_watchdog_) {
    sync_->cv.wait_for(lk, std::chrono::milliseconds(25));
    const auto now = steady::now();
    std::vector<std::string> lines;
    for (const Handle& slot : active_) {
      if (slot->phase != Slot::kRunning) continue;
      if (!slot->soft_cancelled && slot->budget_ms > 0 &&
          now - slot->started >= std::chrono::milliseconds(slot->budget_ms)) {
        slot->token.cancel(CancelReason::kWatchdog);
        slot->soft_cancelled = true;
        slot->watchdog_fired = true;
        slot->soft_cancel_at = now;
        ++watchdog_cancels_;
        if (log_)
          lines.push_back("watchdog: soft-cancelled " + slot->label + " after " +
                          std::to_string(slot->budget_ms) + " ms");
      } else if (slot->soft_cancelled &&
                 now - slot->soft_cancel_at >= std::chrono::milliseconds(grace_ms_)) {
        if (slot->kill && !slot->kill_fired) {
          // A killable job (process-isolated worker) gets a true SIGKILL
          // instead of the legacy detach: the hook reaps the child, the
          // worker thread unwinds within milliseconds, and the job joins
          // like any finished one.  Re-arm the grace window so abandonment
          // stays the last resort should even the kill go unanswered.
          slot->kill_fired = true;
          slot->soft_cancel_at = now;
          ++watchdog_kills_;
          slot->kill();
          if (log_)
            lines.push_back("watchdog: killed unresponsive " + slot->label + " after " +
                            std::to_string(grace_ms_) + " ms grace");
        } else {
          slot->phase = Slot::kAbandoned;
          ++abandoned_;
          if (log_)
            lines.push_back("watchdog: abandoning unresponsive " + slot->label + " after " +
                            std::to_string(grace_ms_) + " ms grace");
          sync_->cv.notify_all();
        }
      }
    }
    if (!lines.empty()) {
      lk.unlock();
      for (const std::string& line : lines) log_(line);
      lk.lock();
    }
  }
}

}  // namespace hem::exec
