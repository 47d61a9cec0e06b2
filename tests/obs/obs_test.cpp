// Tests of the observability layer: counter/histogram/registry semantics,
// span and tracer recording, the Chrome trace_event exporter (validated
// with a small standalone JSON parser), and the core guarantee that
// enabling tracing leaves the analysis results byte-identical.

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/csv.hpp"
#include "model/cpa_engine.hpp"
#include "obs/exporters.hpp"
#include "obs/obs.hpp"
#include "scenarios/paper_system.hpp"

namespace hem::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator (no external deps).  Accepts exactly the
// RFC-8259 grammar; returns false on trailing garbage.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + i >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])))
              return false;
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Every test leaves the global observability state as it found it:
/// no tracer, counting off, all instruments zeroed.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    set_tracer(nullptr);
    set_counting(false);
    registry().reset();
  }
};

std::string fingerprint(const cpa::AnalysisReport& report) {
  std::ostringstream os;
  os << report.format() << "\n--csv--\n";
  io::write_report_csv(os, report);
  os << "--diag--\n";
  for (const auto& d : report.diagnostics.entries())
    os << static_cast<int>(d.severity) << "|" << static_cast<int>(d.code) << "|" << d.entity
       << "|" << d.detail << "\n";
  return os.str();
}

cpa::AnalysisReport run_paper_system(int jobs = 1) {
  const auto sys = scenarios::build_paper_system({}, true);
  cpa::EngineOptions opts;
  opts.jobs = jobs;
  return cpa::CpaEngine(sys, opts).run();
}

// ---------------------------------------------------------------------------
// Counters, histograms, registry
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterAddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add(1);
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, HistogramStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (const long v : {4, 1, 7}) h.record(v);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 12);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 7);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  // Power-of-two buckets: 1 -> [1,2), 4 -> [4,8), 7 -> [4,8).
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(3), 2);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.bucket(3), 0);
}

TEST_F(ObsTest, HistogramZeroAndConcurrentRecords) {
  Histogram h;
  h.record(0);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.min(), 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.record(5);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 4001);
  EXPECT_EQ(h.sum(), 20000);
  EXPECT_EQ(h.max(), 5);
}

TEST_F(ObsTest, RegistryReturnsStableReferencesInNameOrder) {
  Registry reg;
  Counter& a = reg.counter("b.second");
  Counter& b = reg.counter("a.first");
  EXPECT_EQ(&a, &reg.counter("b.second"));  // same name -> same instrument
  a.add(2);
  b.add(1);
  reg.histogram("h").record(3);
  std::vector<std::string> names;
  reg.for_each_counter([&](const std::string& name, const Counter& c) {
    names.push_back(name + "=" + std::to_string(c.value()));
  });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a.first=1");  // deterministic name order
  EXPECT_EQ(names[1], "b.second=2");
  reg.reset();
  EXPECT_EQ(a.value(), 0);
  long hist_count = -1;
  reg.for_each_histogram(
      [&](const std::string&, const Histogram& h) { hist_count = h.count(); });
  EXPECT_EQ(hist_count, 0);
}

#if HEM_OBS_ENABLED

TEST_F(ObsTest, BumpAndObserveAreGatedByCounting) {
  Counter& c = registry().counter("test.gated");
  Histogram& h = registry().histogram("test.gated_hist");
  bump(c);
  observe(h, 9);
  EXPECT_EQ(c.value(), 0) << "probes must be inert while counting is off";
  EXPECT_EQ(h.count(), 0);
  set_counting(true);
  bump(c, 3);
  observe(h, 9);
  EXPECT_EQ(c.value(), 3);
  EXPECT_EQ(h.count(), 1);
}

// ---------------------------------------------------------------------------
// Spans and tracer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpanNameCallbackOnlyRunsWhenTracing) {
  bool invoked = false;
  {
    Span span("test", [&] {
      invoked = true;
      return std::string("never");
    });
    span.arg("key", "value");
  }
  EXPECT_FALSE(invoked) << "dynamic span names must cost nothing when tracing is off";

  Tracer tracer;
  set_tracer(&tracer);
  {
    Span span("test", [&] {
      invoked = true;
      return std::string("outer");
    });
    span.arg("cause", "unit-test");
    span.arg("n", 7L);
    Span inner("test", "inner");
  }
  instant("test", [] { return std::string("marker"); }, {{"k", "v"}});
  set_tracer(nullptr);

  EXPECT_TRUE(invoked);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);  // inner span completes first, then outer, then instant
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_LE(events[1].ts_ns, events[0].ts_ns) << "outer span starts before inner";
  ASSERT_EQ(events[1].args.size(), 2u);
  EXPECT_EQ(events[1].args[0].first, "cause");
  EXPECT_EQ(events[1].args[1].second, "7");
  EXPECT_EQ(events[2].name, "marker");
  EXPECT_EQ(events[2].phase, 'i');
}

TEST_F(ObsTest, InstallingTracerEnablesCounting) {
  EXPECT_FALSE(counting());
  Tracer tracer;
  set_tracer(&tracer);
  EXPECT_TRUE(counting());
  EXPECT_EQ(obs::tracer(), &tracer);
  set_tracer(nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\n\t"), "x\\n\\t");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST_F(ObsTest, ChromeTraceExportIsValidJson) {
  Tracer tracer;
  set_tracer(&tracer);
  {
    Span span("engine", [] { return std::string("local:\"CPU 1\"\n"); });
    span.arg("cause", "quote\"and\\slash");
  }
  registry().counter("test.count").add(5);
  set_tracer(nullptr);

  std::ostringstream os;
  write_chrome_trace(os, tracer, registry());
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter sample
  EXPECT_NE(json.find("test.count"), std::string::npos);
}

TEST_F(ObsTest, MetricsTextListsInstruments) {
  Registry reg;
  reg.counter("z.last").add(2);
  reg.counter("a.first").add(1);
  reg.histogram("steps").record(4);
  std::ostringstream os;
  write_metrics_text(os, reg);
  const std::string text = os.str();
  EXPECT_NE(text.find("a.first 1\n"), std::string::npos);
  EXPECT_NE(text.find("z.last 2\n"), std::string::npos);
  EXPECT_NE(text.find("steps count=1 sum=4"), std::string::npos);
  EXPECT_LT(text.find("a.first"), text.find("z.last"));  // name order
}

// ---------------------------------------------------------------------------
// Engine integration: tracing must not change results
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TracingLeavesAnalysisByteIdentical) {
  const std::string baseline = fingerprint(run_paper_system());

  Tracer tracer;
  set_tracer(&tracer);
  const std::string traced = fingerprint(run_paper_system());
  set_tracer(nullptr);
  EXPECT_EQ(baseline, traced);

  set_counting(true);
  const std::string counted = fingerprint(run_paper_system(4));
  EXPECT_EQ(baseline, counted);
}

TEST_F(ObsTest, EngineEmitsResourceSpansAndCacheCounters) {
  Tracer tracer;
  set_tracer(&tracer);
  (void)run_paper_system();
  set_tracer(nullptr);

  bool saw_run = false, saw_iteration = false, saw_local = false, saw_converged = false;
  std::string local_cause;
  std::set<std::string> phases;
  for (const auto& ev : tracer.snapshot()) {
    phases.insert(ev.name);
    if (ev.name == "CpaEngine::run") saw_run = true;
    if (ev.name == "iteration") saw_iteration = true;
    if (ev.name.rfind("local:", 0) == 0) {
      saw_local = true;
      for (const auto& [k, v] : ev.args)
        if (k == "cause") local_cause = v;
    }
    if (ev.name == "converged") saw_converged = true;
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_iteration);
  EXPECT_TRUE(saw_local);
  EXPECT_TRUE(saw_converged);
  EXPECT_FALSE(local_cause.empty()) << "local-analysis spans must carry their dirty cause";
  for (const char* phase : {"check_resource_load", "update_convergence", "compile_activations",
                            "compile_converged", "assemble_report"})
    EXPECT_EQ(phases.count(phase), 1u) << "missing engine sub-phase span " << phase;

  // Every model of the paper system has a closed-form long-run rate.
  bool saw_fallbacks = false;
  registry().for_each_counter([&](const std::string& name, const Counter& c) {
    if (name != "engine.rate_fallbacks") return;
    saw_fallbacks = true;
    EXPECT_EQ(c.value(), 0) << "long-run rate sampled instead of computed";
  });
  EXPECT_TRUE(saw_fallbacks) << "engine.rate_fallbacks is not registered";

  EXPECT_GT(registry().counter("engine.cache.hit").value() +
                registry().counter("engine.cache.miss").value(),
            0)
      << "delta-cache probes should fire during the analysis";
  EXPECT_GT(registry().counter("sched.busy_window.fixpoint_steps").value(), 0);
  EXPECT_GT(registry().counter("engine.local_analyses_run").value(), 0);
}

#endif  // HEM_OBS_ENABLED

}  // namespace
}  // namespace hem::obs
