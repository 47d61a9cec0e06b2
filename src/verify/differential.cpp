#include "verify/differential.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/errors.hpp"
#include "model/cpa_engine.hpp"
#include "rtc/compile.hpp"
#include "sim/system_simulator.hpp"
#include "sim/trace_check.hpp"
#include "verify/lint.hpp"
#include "verify/model_checker.hpp"

namespace hem::verify {

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t OracleFinding::bucket() const { return fnv1a64(oracle + '/' + fingerprint); }

namespace {

void mix_model(std::ostringstream& os, const ModelPtr& model) {
  if (model == nullptr) {
    os << "~|";
    return;
  }
  for (Count n = 2; n <= 9; ++n) os << model->delta_min(n) << ',' << model->delta_plus(n) << ';';
  os << '|';
}

/// Shared EngineOptions base so every oracle arm analyses under identical
/// budgets (only the knob under test differs between arms).
cpa::EngineOptions base_options(const DiffOptions& opts) {
  cpa::EngineOptions eo;
  eo.max_iterations = opts.max_iterations;
  eo.jobs = 1;
  return eo;
}

cpa::AnalysisReport run_engine(const cpa::System& system, const cpa::EngineOptions& eo) {
  cpa::CpaEngine engine(system, eo);
  return engine.run();
}

// ---------------------------------------------------------------------------
// Dominance: analytic bounds vs simulated observations.
// ---------------------------------------------------------------------------

class DominanceOracle final : public Oracle {
 public:
  [[nodiscard]] std::string name() const override { return "dominance"; }

  void check(const DiffInput& in, const DiffOptions& opts,
             std::vector<OracleFinding>& out) const override {
    const cpa::AnalysisReport report = run_engine(*in.system, base_options(opts));

    sim::SystemSimulator::Options sopts;
    sopts.horizon = opts.sim_horizon;
    sopts.mode = sim::GenMode::kRandom;
    sopts.seed = opts.sim_seed;
    sopts.worst_case_exec = true;
    sim::SystemSimResult observed;
    try {
      observed = sim::SystemSimulator(*in.system, sopts).run();
    } catch (const std::invalid_argument& e) {
      throw OracleSkipped(e.what());  // a stimulus the simulator cannot generate
    }

    for (const cpa::TaskResult& task : report.tasks) {
      const auto it = observed.tasks.find(task.name);
      if (it == observed.tasks.end()) continue;
      const auto& stats = it->second;

      // (1) Observed worst response must stay within the analytic WCRT —
      // including fallback bounds, which claim conservativeness too.
      if (!is_infinite(task.wcrt) && !stats.responses.empty() && stats.wcrt > task.wcrt) {
        out.push_back({name(), "wcrt:" + task.name,
                       task.name + ": observed response " + std::to_string(stats.wcrt) +
                           " exceeds analytic wcrt " + std::to_string(task.wcrt) +
                           " (status " + cpa::to_string(task.status) + ")"});
      }

      // (2) Observed activation backlog must stay within the analytic queue
      // bound.  Completions at time x free their slot before activations at
      // x claim one (conservative tie-break for the observation).
      if (!is_infinite_count(task.backlog)) {
        std::vector<std::pair<Time, int>> events;
        events.reserve(stats.activations.size() + stats.responses.size());
        for (const Time a : stats.activations) events.emplace_back(a, 1);
        const std::size_t completed = std::min(stats.activations.size(), stats.responses.size());
        for (std::size_t i = 0; i < completed; ++i)
          events.emplace_back(stats.activations[i] + stats.responses[i], -1);
        std::sort(events.begin(), events.end(),
                  [](const auto& a, const auto& b) {
                    return a.first != b.first ? a.first < b.first : a.second < b.second;
                  });
        Count queue = 0;
        Count max_queue = 0;
        for (const auto& [when, delta] : events) {
          queue += delta;
          max_queue = std::max(max_queue, queue);
        }
        if (max_queue > task.backlog) {
          out.push_back({name(), "backlog:" + task.name,
                         task.name + ": observed backlog " + std::to_string(max_queue) +
                             " exceeds analytic bound " + std::to_string(task.backlog)});
        }
      }

      // (3) Observed traces must conform to the analytic stream models:
      // activations to the activation bound, completions to the output
      // bound.  Exact for converged tasks; degraded tasks carry envelope
      // models that must still contain the trace.
      const Time dt_max = std::min<Time>(opts.sim_horizon, 20'000);
      constexpr Time kStep = 257;
      constexpr Count kNMax = 12;
      if (task.activation != nullptr) {
        for (const std::string& v : sim::check_trace_against_model(
                 stats.activations, *task.activation, dt_max, kStep, kNMax))
          out.push_back({name(), "act-trace:" + task.name, task.name + ".activation: " + v});
      }
      if (task.output != nullptr && !stats.responses.empty()) {
        const std::size_t completed = std::min(stats.activations.size(), stats.responses.size());
        std::vector<Time> completions(completed);
        for (std::size_t i = 0; i < completed; ++i)
          completions[i] = stats.activations[i] + stats.responses[i];
        std::sort(completions.begin(), completions.end());
        for (const std::string& v : sim::check_trace_against_model(completions, *task.output,
                                                                   dt_max, kStep, kNMax))
          out.push_back({name(), "out-trace:" + task.name, task.name + ".output: " + v});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Determinism: bit-identical reports across execution strategies.
// ---------------------------------------------------------------------------

class DeterminismOracle final : public Oracle {
 public:
  [[nodiscard]] std::string name() const override { return "determinism"; }

  void check(const DiffInput& in, const DiffOptions& opts,
             std::vector<OracleFinding>& out) const override {
    const cpa::EngineOptions base = base_options(opts);
    const std::uint64_t cold_fp = report_fingerprint(run_engine(*in.system, base));

    const auto compare_arm = [&](const char* arm, const cpa::AnalysisReport& report) {
      const std::uint64_t fp = report_fingerprint(report);
      if (fp != cold_fp) {
        std::ostringstream detail;
        detail << arm << " fingerprint " << std::hex << fp << " != serial cold fingerprint "
               << cold_fp;
        out.push_back({name(), std::string("fp:") + arm, detail.str()});
      }
    };

    cpa::EngineOptions wide = base;
    wide.jobs = opts.wide_jobs;
    compare_arm("jobs-wide", run_engine(*in.system, wide));

    cpa::EngineOptions full = base;
    full.incremental = false;
    compare_arm("non-incremental", run_engine(*in.system, full));
  }
};

// ---------------------------------------------------------------------------
// Compilation: compiled curves vs the lazy DAG.
// ---------------------------------------------------------------------------

class CompilationOracle final : public Oracle {
 public:
  [[nodiscard]] std::string name() const override { return "compilation"; }

  void check(const DiffInput& in, const DiffOptions& opts,
             std::vector<OracleFinding>& out) const override {
    const cpa::EngineOptions base = base_options(opts);
    const cpa::AnalysisReport compiled = run_engine(*in.system, base);

    cpa::EngineOptions lazy_opts = base;
    lazy_opts.compile_curves = false;
    const cpa::AnalysisReport lazy = run_engine(*in.system, lazy_opts);
    if (report_fingerprint(compiled) != report_fingerprint(lazy)) {
      out.push_back({name(), "fp:compile-toggle",
                     "analysis results differ between compile_curves on and off"});
    }

    // Full axiom sweep (AX1-AX13) over every per-task model the engine
    // published, plus random compiled-vs-lazy probes beyond the checker's
    // bend points.
    ModelChecker checker({opts.checker_horizon, /*check_eta=*/true});
    rtc::CompileOptions copts;
    copts.max_horizon = opts.checker_horizon;
    std::mt19937_64 rng(opts.sim_seed);
    for (const cpa::TaskResult& task : compiled.tasks) {
      if (task.activation != nullptr) {
        checker.check_model(*task.activation, task.name + ".activation");
        task.activation->ensure_compiled(copts);
        checker.check_compiled(*task.activation, task.name + ".activation");
        probe(rng, *task.activation, task.name + ".activation", opts, out);
      }
      if (task.output != nullptr) {
        checker.check_model(*task.output, task.name + ".output");
        task.output->ensure_compiled(copts);
        checker.check_compiled(*task.output, task.name + ".output");
        probe(rng, *task.output, task.name + ".output", opts, out);
      }
      // Inner-update results may legitimately fall below the outer's
      // serialisation bound, so AX9 is not asserted on engine outputs.
      if (task.hem_output != nullptr)
        checker.check_hierarchical(*task.hem_output, task.name + ".hem_output",
                                   /*outer_bounds_inner=*/false);
    }
    for (const AxiomViolation& v : checker.violations())
      out.push_back({name(), v.axiom + ":" + v.model, v.format()});
  }

 private:
  /// Compiled and lazy evaluation paths must agree on EVERY query: inside
  /// the compiled horizon by AX12, beyond it because queries fall back to
  /// the lazy DAG.  Random points extend the checker's deterministic grid.
  void probe(std::mt19937_64& rng, const EventModel& model, const std::string& path,
             const DiffOptions& opts, std::vector<OracleFinding>& out) const {
    for (int i = 0; i < opts.probe_points; ++i) {
      const Count n = 2 + static_cast<Count>(rng() % 4096);
      const Time dt = 1 + static_cast<Time>(rng() % 1'000'000);
      if (model.delta_min(n) != model.delta_min_lazy(n)) {
        out.push_back({name(), "probe-delta-min:" + path,
                       path + ": delta_min(" + std::to_string(n) + ") compiled " +
                           std::to_string(model.delta_min(n)) + " != lazy " +
                           std::to_string(model.delta_min_lazy(n))});
        return;  // one witness per model keeps buckets stable
      }
      if (model.delta_plus(n) != model.delta_plus_lazy(n)) {
        out.push_back({name(), "probe-delta-plus:" + path,
                       path + ": delta_plus(" + std::to_string(n) + ") compiled " +
                           std::to_string(model.delta_plus(n)) + " != lazy " +
                           std::to_string(model.delta_plus_lazy(n))});
        return;
      }
      if (model.eta_plus(dt) != model.eta_plus_lazy(dt)) {
        out.push_back({name(), "probe-eta-plus:" + path,
                       path + ": eta_plus(" + std::to_string(dt) + ") compiled " +
                           std::to_string(model.eta_plus(dt)) + " != lazy " +
                           std::to_string(model.eta_plus_lazy(dt))});
        return;
      }
      if (model.eta_minus(dt) != model.eta_minus_lazy(dt)) {
        out.push_back({name(), "probe-eta-minus:" + path,
                       path + ": eta_minus(" + std::to_string(dt) + ") compiled " +
                           std::to_string(model.eta_minus(dt)) + " != lazy " +
                           std::to_string(model.eta_minus_lazy(dt))});
        return;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Degradation: graceful vs strict, and hemlint HL001 vs engine overload.
// ---------------------------------------------------------------------------

class DegradationOracle final : public Oracle {
 public:
  [[nodiscard]] std::string name() const override { return "degradation"; }

  void check(const DiffInput& in, const DiffOptions& opts,
             std::vector<OracleFinding>& out) const override {
    const cpa::EngineOptions base = base_options(opts);
    const cpa::AnalysisReport graceful = run_engine(*in.system, base);

    cpa::EngineOptions strict_opts = base;
    strict_opts.strict = true;
    bool strict_threw = false;
    cpa::AnalysisReport strict;
    try {
      strict = run_engine(*in.system, strict_opts);
    } catch (const AnalysisError&) {
      strict_threw = true;
    }

    if (strict_threw) {
      // Strict found a failure, so graceful must have recorded degradation
      // for the same system instead of presenting exact-looking bounds.
      if (!graceful.degraded() && graceful.converged && graceful.diagnostics.empty()) {
        out.push_back({name(), "strict-throw-graceful-clean",
                       "strict mode threw AnalysisError but the graceful report is "
                       "converged, undegraded, and diagnostic-free"});
      }
    } else if (strict.converged) {
      // Whenever strict converges, graceful analysed the identical system
      // with identical budgets — its bounds must dominate strict's.
      for (const cpa::TaskResult& stask : strict.tasks) {
        const cpa::TaskResult& gtask = graceful.task(stask.name);
        if (gtask.wcrt < stask.wcrt || gtask.bcrt > stask.bcrt) {
          out.push_back({name(), "strict-dominance:" + stask.name,
                         stask.name + ": graceful [" + std::to_string(gtask.bcrt) + ", " +
                             std::to_string(gtask.wcrt) + "] does not contain strict [" +
                             std::to_string(stask.bcrt) + ", " + std::to_string(stask.wcrt) +
                             "]"});
        }
      }
    }

    if (!in.config_text.empty()) check_hl001(in, graceful, out);
  }

 private:
  void check_hl001(const DiffInput& in, const cpa::AnalysisReport& graceful,
                   std::vector<OracleFinding>& out) const {
    std::istringstream text(in.config_text);
    const LintResult lint = lint_config(text);
    if (!lint.parse_ok) return;
    std::set<std::string> lint_overload;  // resources HL001 names
    for (const Diagnostic& d : lint.diagnostics) {
      // Cyclic-dependency configs degrade through a different engine path
      // (unresolved activations), where rate estimates are undefined.
      if (d.code == "HL006" || d.code == "HL007") return;
      if (d.code == "HL001") {
        const std::size_t open = d.message.find('\'');
        const std::size_t close = d.message.find('\'', open + 1);
        lint_overload.insert(d.message.substr(open + 1, close - open - 1));
      }
    }
    std::set<std::string> engine_overload;  // resource (and task) entities
    for (const cpa::Diagnostic& d : graceful.diagnostics.entries())
      if (d.code == cpa::DiagCode::kResourceOverload) engine_overload.insert(d.entity);

    // hemlint and the engine sum the same exact rates, but hemlint
    // propagates source rates where the engine's outputs are also capped at
    // 1/r-; exactly at the load == 1 boundary the two sums may round to
    // different sides, so the iff-check keeps a guard band around 1.0.  The
    // band is judged on the exact rates both verdicts use, not on the
    // report's sampled `utilization` column.
    const cpa::System& sys = *in.system;
    std::map<std::string, double> load;
    for (cpa::TaskId t = 0; t < graceful.tasks.size(); ++t) {  // reports keep task order
      const cpa::TaskResult& task = graceful.tasks[t];
      if (task.activation)
        load[task.resource] +=
            task.activation->long_run_rate() * static_cast<double>(sys.tasks()[t].cet.worst);
    }
    for (const auto& [resource, value] : load)
      if (value > 0.999 && value < 1.001) return;

    // hemlint propagates source rates, while a fallback output (the
    // sporadic envelope at spacing C-) can load its consumers far above or
    // below them: a TDMA task whose busy window diverges at load 0.01 can
    // overload the CPU it feeds, and an overloaded producer can relieve an
    // HL001-flagged consumer.  So the iff is judged per resource, and only
    // on resources with no task downstream of a task with fallback bounds.
    const std::size_t n = sys.tasks().size();
    std::vector<char> fallback(n), downstream(n);
    for (cpa::TaskId t = 0; t < n; ++t)
      fallback[t] = graceful.task(sys.tasks()[t].name).degraded() ? 1 : 0;
    for (bool grew = true; grew;) {
      grew = false;
      for (cpa::TaskId t = 0; t < n; ++t) {
        if (downstream[t]) continue;
        for (const cpa::TaskId p : cpa::referenced_tasks(sys.activation(t)))
          if (fallback[p] || downstream[p]) downstream[t] = 1;
        grew = grew || downstream[t];
      }
    }
    std::vector<char> fed_by_fallback(sys.resources().size());
    for (cpa::TaskId t = 0; t < n; ++t)
      if (downstream[t]) fed_by_fallback[sys.tasks()[t].resource] = 1;
    for (cpa::ResourceId r = 0; r < sys.resources().size(); ++r) {
      const std::string& res = sys.resources()[r].name;
      const bool lint_says = lint_overload.count(res) > 0;
      const bool engine_says = engine_overload.count(res) > 0;
      if (lint_says != engine_says && !fed_by_fallback[r]) {
        out.push_back({name(), "hl001-iff-overload",
                       "on resource '" + res + "' hemlint HL001 " +
                           (lint_says ? "fired" : "did not fire") + " but the engine " +
                           (engine_says ? "reported" : "did not report") + " overload"});
        return;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Broken models for harness self-tests (mirroring tests/verify mocks).
// ---------------------------------------------------------------------------

/// delta- decreasing in n (violates AX1, and AX3 where it crosses delta+).
class BrokenAx1Model final : public EventModel {
 public:
  [[nodiscard]] std::string describe() const override { return "Broken(ax1)"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override {
    return std::max<Time>(0, 10000 - 10 * n);
  }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return sat_mul(10000, n - 1); }
};

/// delta- above delta+ everywhere (violates AX3).
class BrokenAx3Model final : public EventModel {
 public:
  [[nodiscard]] std::string describe() const override { return "Broken(ax3)"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override { return sat_mul(200, n - 1); }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return sat_mul(100, n - 1); }
};

/// Consistent periodic deltas but a non-monotone closed-form eta+ override
/// (violates AX4, and the AX7 pseudo-inverse relation).
class BrokenEtaPlusModel final : public EventModel {
 public:
  [[nodiscard]] std::string describe() const override { return "Broken(eta-plus)"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override { return sat_mul(100, n - 1); }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return sat_mul(100, n - 1); }
  [[nodiscard]] Count eta_plus_raw(Time dt) const override { return dt % 2 == 1 ? 100 : 1; }
};

/// Correct periodic deltas but a lazy eta+ that ignores them: the compiled
/// form inverts the (correct) curves, so compiled and lazy eta+ disagree
/// inside the horizon (violates AX12).
class BrokenCompileEtaModel final : public EventModel {
 public:
  [[nodiscard]] std::string describe() const override { return "Broken(compile-eta)"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override { return sat_mul(100, n - 1); }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return sat_mul(100, n - 1); }
  [[nodiscard]] Count eta_plus_raw(Time /*dt*/) const override { return 1; }
};

/// Flat (subadditive) delta-: the compiled lower curve's periodic extension
/// overtakes the true curve beyond the horizon (violates AX13).
class BrokenCompileDminModel final : public EventModel {
 public:
  [[nodiscard]] std::string describe() const override { return "Broken(compile-dmin)"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count /*n*/) const override { return 100; }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return sat_mul(100, n - 1); }
};

/// Quadratic (superadditive) delta+: the compiled upper curve's linear
/// extension undershoots the true curve beyond the horizon (violates AX13).
class BrokenCompileDplusModel final : public EventModel {
 public:
  [[nodiscard]] std::string describe() const override { return "Broken(compile-dplus)"; }

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override { return n - 1; }
  [[nodiscard]] Time delta_plus_raw(Count n) const override { return sat_mul(n - 1, n - 1); }
};

}  // namespace

const std::vector<std::string>& broken_model_kinds() {
  static const std::vector<std::string> kinds = {"ax1",         "ax3",          "eta-plus",
                                                 "compile-eta", "compile-dmin", "compile-dplus"};
  return kinds;
}

ModelPtr make_broken_model(const std::string& kind) {
  if (kind == "ax1") return std::make_shared<BrokenAx1Model>();
  if (kind == "ax3") return std::make_shared<BrokenAx3Model>();
  if (kind == "eta-plus") return std::make_shared<BrokenEtaPlusModel>();
  if (kind == "compile-eta") return std::make_shared<BrokenCompileEtaModel>();
  if (kind == "compile-dmin") return std::make_shared<BrokenCompileDminModel>();
  if (kind == "compile-dplus") return std::make_shared<BrokenCompileDplusModel>();
  throw std::invalid_argument("unknown broken model kind '" + kind + "'");
}

int inject_broken_models(cpa::System& system, const std::string& kind) {
  const ModelPtr broken = make_broken_model(kind);
  int replaced = 0;
  for (cpa::TaskId t = 0; t < system.tasks().size(); ++t) {
    system.rewrite_external_models(t, [&](const ModelPtr& current) -> ModelPtr {
      if (current == nullptr) return nullptr;
      ++replaced;
      return broken;
    });
  }
  return replaced;
}

std::uint64_t report_fingerprint(const cpa::AnalysisReport& report) {
  std::ostringstream os;
  for (const cpa::TaskResult& task : report.tasks) {
    os << task.name << '|' << task.resource << '|' << cpa::to_string(task.status) << '|'
       << task.bcrt << '|' << task.wcrt << '|' << task.activations_in_busy_period << '|'
       << task.busy_period << '|' << task.backlog << '|';
    std::uint64_t util_bits = 0;
    static_assert(sizeof(util_bits) == sizeof(task.utilization));
    std::memcpy(&util_bits, &task.utilization, sizeof(util_bits));
    os << util_bits << '|';
    mix_model(os, task.activation);
    mix_model(os, task.output);
    os << '\n';
  }
  // Iteration counts (global and per-diagnostic) are work counters, not
  // results, so they stay out of the fingerprint.
  os << report.converged << '\n';
  for (const cpa::Diagnostic& d : report.diagnostics.entries())
    os << cpa::to_string(d.severity) << '|' << cpa::to_string(d.code) << '|' << d.entity << '|'
       << d.detail << '\n';
  return fnv1a64(os.str());
}

OracleRegistry OracleRegistry::with_builtin_oracles() {
  OracleRegistry registry;
  registry.add(std::make_unique<DominanceOracle>());
  registry.add(std::make_unique<DeterminismOracle>());
  registry.add(std::make_unique<CompilationOracle>());
  registry.add(std::make_unique<DegradationOracle>());
  return registry;
}

void OracleRegistry::add(std::unique_ptr<Oracle> oracle) { oracles_.push_back(std::move(oracle)); }

const Oracle* OracleRegistry::find(std::string_view name) const {
  for (const auto& oracle : oracles_)
    if (oracle->name() == name) return oracle.get();
  return nullptr;
}

std::vector<OracleFinding> OracleRegistry::run(const DiffInput& in, const DiffOptions& opts,
                                               std::vector<OracleSkip>* skips) const {
  std::vector<OracleFinding> findings;
  for (const auto& oracle : oracles_) {
    try {
      oracle->check(in, opts, findings);
    } catch (const OracleSkipped& e) {
      if (skips != nullptr) skips->push_back({oracle->name(), e.what()});
    } catch (const std::exception& e) {
      // A throwing oracle is itself a finding (e.g. HEM_VERIFY contract
      // violations raised by deliberately broken models); the fingerprint
      // stays free of the message so buckets remain stable.
      findings.push_back({oracle->name(), "exception", e.what()});
    }
  }
  return findings;
}

}  // namespace hem::verify
