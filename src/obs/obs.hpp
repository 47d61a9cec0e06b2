#pragma once

/// \file obs.hpp
/// Lightweight observability layer: named counters/histograms and scoped
/// trace spans with thread ids and monotonic timestamps.
///
/// Design goals, in order:
///   1. Near-zero overhead when disabled.  Collection is gated twice:
///      * compile time - defining HEM_OBS_DISABLE compiles every probe down
///        to nothing (constant-folded `if (false)` branches);
///      * run time - with the layer compiled in, every probe first performs
///        one relaxed atomic load (`counting()` for counters, `tracer()`
///        for spans) and branches away when observability is off.  Disabled
///        runs therefore pay one predictable-not-taken branch per probe.
///   2. Bit-identical analysis results.  Probes only *read* analysis state;
///      enabling or disabling them never changes control flow of the
///      instrumented code (contention-counted locks still always acquire).
///   3. Thread safety.  Counters are single atomics, histograms are arrays
///      of atomics, the span sink is mutex-guarded (spans are coarse:
///      per-resource local analyses and per-iteration phases, not per-query
///      events, so sink contention is negligible).
///
/// The exporters (Chrome trace_event JSON for about:tracing / Perfetto and
/// a plain-text metrics dump) live in obs/exporters.hpp.  Typical use:
///
///   obs::Tracer tracer;
///   obs::set_tracer(&tracer);         // also enables counting
///   ... run the analysis ...
///   obs::set_tracer(nullptr);
///   obs::write_chrome_trace(file, tracer, obs::registry());
///
/// Instrumented code declares probes like:
///
///   obs::Counter& hits = obs::registry().counter("engine.cache.hit");
///   ...
///   obs::bump(hits);                                   // hot path
///   obs::Span span("engine", [&] { return "local:" + name; });
///   span.arg("cause", cause);

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#ifndef HEM_OBS_DISABLE
#define HEM_OBS_ENABLED 1
#else
#define HEM_OBS_ENABLED 0
#endif

namespace hem::obs {

// ---------------------------------------------------------------------------
// Counters and histograms
// ---------------------------------------------------------------------------

/// Monotonic named counter.  Incremented from any thread; reads are
/// approximate while writers are active (relaxed ordering is sufficient for
/// statistics).
class Counter {
 public:
  void add(long v) noexcept { value_.fetch_add(v, std::memory_order_relaxed); }
  [[nodiscard]] long value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> value_{0};
};

/// Histogram of non-negative long samples: count/sum/min/max plus
/// power-of-two buckets (bucket i counts samples in [2^(i-1), 2^i), bucket 0
/// counts zeros).  Lock-free.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  void record(long sample) noexcept;

  [[nodiscard]] long count() const noexcept { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] long sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] long min() const noexcept { return min_.load(std::memory_order_relaxed); }
  [[nodiscard]] long max() const noexcept { return max_.load(std::memory_order_relaxed); }
  [[nodiscard]] long bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const long n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  void reset() noexcept;

 private:
  std::atomic<long> count_{0};
  std::atomic<long> sum_{0};
  std::atomic<long> min_{0};
  std::atomic<long> max_{0};
  std::atomic<bool> has_sample_{false};
  std::atomic<long> buckets_[kBuckets] = {};
};

/// Name -> counter/histogram registry.  Lookup is mutex-guarded (intended
/// for one-time probe setup at namespace scope, not per-event); returned
/// references are stable for the registry's lifetime.
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Visit all instruments in name order (exporters and tests).
  void for_each_counter(const std::function<void(const std::string&, const Counter&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& fn) const;

  /// Zero every instrument (names stay registered).  Test isolation helper.
  void reset();

 private:
  mutable std::mutex mu_;
  // std::map keeps iteration deterministic and node addresses stable.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// The process-wide registry.  Probes in analysis code register here once
/// at static-init/first-use; `EngineStats` and the exporters read it.
[[nodiscard]] Registry& registry();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded trace event (Chrome trace_event vocabulary: 'X' = complete
/// span with duration, 'i' = instant).  Timestamps are steady-clock
/// nanoseconds since the tracer was constructed.
struct TraceEvent {
  std::string name;
  const char* category = "";
  char phase = 'X';
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::vector<std::pair<std::string, std::string>> args;  ///< pre-rendered values
};

/// Collects completed trace events.  Thread-safe; events arrive in
/// completion order (the exporter sorts by begin timestamp).
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - epoch_)
                                          .count());
  }

  void record(TraceEvent&& ev);
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  [[nodiscard]] std::size_t size() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// ---------------------------------------------------------------------------
// Global enablement (runtime null-sink check)
// ---------------------------------------------------------------------------

namespace detail {
#if HEM_OBS_ENABLED
extern std::atomic<Tracer*> g_tracer;
extern std::atomic<bool> g_counting;
#endif
}  // namespace detail

/// Active tracer, or nullptr when tracing is off.  One relaxed load.
[[nodiscard]] inline Tracer* tracer() noexcept {
#if HEM_OBS_ENABLED
  return detail::g_tracer.load(std::memory_order_relaxed);
#else
  return nullptr;
#endif
}

/// Whether hot-path counters should record.  One relaxed load.
[[nodiscard]] inline bool counting() noexcept {
#if HEM_OBS_ENABLED
  return detail::g_counting.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Install (or remove, with nullptr) the process-wide tracer.  Installing a
/// tracer also enables counting; removing it leaves counting as-is.
void set_tracer(Tracer* t) noexcept;

/// Enable/disable hot-path counter collection independently of tracing
/// (`hemcpa --metrics` without `--trace-out`).
void set_counting(bool on) noexcept;

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// Hot-path counter bump: a relaxed load + untaken branch when disabled.
inline void bump(Counter& c, long v = 1) noexcept {
  if (counting()) c.add(v);
}

inline void observe(Histogram& h, long sample) noexcept {
  if (counting()) h.record(sample);
}

/// Small dense thread id for trace events (0 = first observed thread).
[[nodiscard]] std::uint32_t thread_id() noexcept;

/// RAII scoped span.  The name callback only runs when a tracer is
/// installed, so building dynamic names costs nothing when tracing is off.
class Span {
 public:
  template <typename NameFn>
  Span(const char* category, NameFn&& name) {
    if (Tracer* t = obs::tracer()) begin(t, category, std::forward<NameFn>(name)());
  }
  Span(const char* category, const char* name) {
    if (Tracer* t = obs::tracer()) begin(t, category, std::string(name));
  }
  ~Span() {
    if (tracer_) finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key/value argument; no-ops (without building the value) when
  /// the span is inactive.
  void arg(const char* key, const std::string& value) {
    if (tracer_) event_.args.emplace_back(key, value);
  }
  void arg(const char* key, const char* value) {
    if (tracer_) event_.args.emplace_back(key, value);
  }
  void arg(const char* key, long value) {
    if (tracer_) event_.args.emplace_back(key, std::to_string(value));
  }

 private:
  void begin(Tracer* t, const char* category, std::string name);
  void finish();

  Tracer* tracer_ = nullptr;
  TraceEvent event_;
};

/// Record an instant event ('i' phase), e.g. a convergence decision.
template <typename NameFn>
void instant(const char* category, NameFn&& name,
             std::vector<std::pair<std::string, std::string>> args = {}) {
  if (Tracer* t = tracer()) {
    TraceEvent ev;
    ev.name = std::forward<NameFn>(name)();
    ev.category = category;
    ev.phase = 'i';
    ev.ts_ns = t->now_ns();
    ev.tid = thread_id();
    ev.args = std::move(args);
    t->record(std::move(ev));
  }
}

}  // namespace hem::obs
