#include "model/cpa_engine.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "core/combinators.hpp"
#include "core/errors.hpp"
#include "core/output_model.hpp"
#include "core/sem_fit.hpp"
#include "exec/work_pool.hpp"
#include "hierarchical/inner_update.hpp"
#include "obs/obs.hpp"
#include "rtc/compile.hpp"
#include "sched/local_analysis.hpp"

namespace hem::cpa {

namespace {

/// Compile budget for lowering a model node (rtc/compile.hpp).  The busy
/// window bounds the time range the local analysis actually queries; 2x
/// headroom covers growth in later global iterations.  With no finite busy
/// bound yet the default sample budget alone caps the horizon.
rtc::CompileOptions compile_options_for(Time busy) {
  rtc::CompileOptions opt;
  if (busy > 0 && !is_infinite(busy)) opt.time_horizon = sat_mul(busy, 2);
  return opt;
}

/// Degraded-status classification of a local-analysis failure.
TaskStatus status_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverload:
    case ErrorCode::kWindowLimit:
      return TaskStatus::kOverloaded;
    case ErrorCode::kIterationLimit:
    case ErrorCode::kTimeBudget:
      return TaskStatus::kBudgetExhausted;
    default:
      return TaskStatus::kDiverged;
  }
}

DiagCode diag_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverload:
      return DiagCode::kResourceOverload;
    case ErrorCode::kIterationLimit:
    case ErrorCode::kTimeBudget:
      return DiagCode::kBusyWindowBudget;
    default:
      return DiagCode::kBusyWindowDivergence;
  }
}

/// Sporadic fallback hierarchical output: outer and every inner stream
/// degrade to the eq.-8 pending shape (spacing, delta+ = inf).
HemPtr degraded_hem_output(const ModelPtr& outer, std::size_t inner_count, Time spacing) {
  std::vector<ModelPtr> inner(inner_count, std::make_shared<SporadicEnvelopeModel>(spacing));
  return std::make_shared<HierarchicalEventModel>(outer, std::move(inner),
                                                  PackRule::instance());
}

// EngineStats is the per-run view of these registry counters: the engine
// accumulates its work counters locally (deterministic, unaffected by other
// engines in the process) and publishes the totals here at the end of every
// run, where the metrics dump and the trace exporter pick them up.
obs::Counter& g_eng_analyses_run = obs::registry().counter("engine.local_analyses_run");
obs::Counter& g_eng_analyses_skipped = obs::registry().counter("engine.local_analyses_skipped");
obs::Counter& g_eng_models_reused = obs::registry().counter("engine.models_reused");
obs::Counter& g_eng_models_rebuilt = obs::registry().counter("engine.models_rebuilt");
obs::Counter& g_eng_iterations = obs::registry().counter("engine.iterations");

// The lock-free model caches publish into these process-wide probes (see
// core/event_model.cpp and core/output_model.cpp); run() snapshot-diffs
// them into EngineStats.  Best-effort: only populated while obs counting is
// enabled, and polluted by other engines running concurrently in-process.
obs::Counter& g_cache_hit = obs::registry().counter("engine.cache.hit");
obs::Counter& g_cache_miss = obs::registry().counter("engine.cache.miss");
obs::Counter& g_cache_race = obs::registry().counter("engine.cache.publish_race");
obs::Counter& g_cache_alloc = obs::registry().counter("engine.cache.segment_alloc");
obs::Counter& g_cache_rec_race = obs::registry().counter("engine.cache.rec_publish_race");
obs::Counter& g_cache_rec_extend = obs::registry().counter("engine.cache.rec_extend");

}  // namespace

CpaEngine::CpaEngine(const System& system, EngineOptions options)
    : system_(system), options_(options), limits_(options.fixpoint_limits) {
  system_.validate();
  // Equal priorities leave SPP/CAN tie-breaking undefined.  Each resource's
  // full task set is checked here, so whether a system is rejected never
  // depends on resolution order or the overload pre-check.
  std::vector<std::set<int>> priorities(system_.resources().size());
  for (const TaskSpec& t : system_.tasks()) {
    const Policy policy = system_.resources()[t.resource].policy;
    if (policy == Policy::kSppPreemptive || policy == Policy::kSpnpCan)
      sched::claim_priority(priorities[t.resource], t.priority, t.name,
                            sched::analysis_name(policy));
  }
  state_.resize(system_.tasks().size());
  resource_tasks_.resize(system_.resources().size());
  for (TaskId t = 0; t < system_.tasks().size(); ++t)
    resource_tasks_[system_.tasks()[t].resource].push_back(t);
  resource_load_.assign(system_.resources().size(), 0.0);
  resource_overloaded_.assign(system_.resources().size(), 0);
  changed_.assign(system_.tasks().size(), 1);
}

CpaEngine::~CpaEngine() = default;

int CpaEngine::effective_jobs() const {
  if (options_.jobs > 0) return options_.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void CpaEngine::resolve_activations() {
  obs::Span span("engine", "resolve_activations");
  span.arg("iteration", static_cast<long>(current_iteration_));
  const bool inc = options_.incremental;
  const auto& tasks = system_.tasks();
  for (TaskId t = 0; t < tasks.size(); ++t) {
    const ActivationSpec& spec = system_.activation(t);
    TaskState& st = state_[t];

    // Reuse decision: nodes are immutable, so an activation built from the
    // same producer nodes as last iteration IS last iteration's activation;
    // returning the existing node keeps its delta-curve memoisation warm
    // and gives downstream dirty tracking a stable version stamp.
    const auto reuse = [&](const std::vector<const void*>& key) {
      if (inc && st.act_flat && key == st.act_key) {
        ++stats_.models_reused;
        return true;
      }
      st.act_key = key;
      ++stats_.models_rebuilt;
      return false;
    };

    if (const auto* ext = std::get_if<ExternalActivation>(&spec)) {
      if (!st.act_flat) st.act_flat = ext->model;  // external sources never change
      continue;
    }
    if (const auto* by = std::get_if<TaskOutputActivation>(&spec)) {
      std::vector<const void*> key;
      key.reserve(by->producers.size());
      bool complete = true;
      for (TaskId p : by->producers) {
        if (!state_[p].out_flat) {
          complete = false;
          break;
        }
        key.push_back(state_[p].out_flat.get());
      }
      if (!complete || reuse(key)) continue;
      std::vector<ModelPtr> producers;
      producers.reserve(by->producers.size());
      for (TaskId p : by->producers) producers.push_back(state_[p].out_flat);
      st.act_flat = or_combine(producers);
      continue;
    }
    if (const auto* andj = std::get_if<AndActivation>(&spec)) {
      std::vector<const void*> key;
      key.reserve(andj->producers.size());
      bool complete = true;
      for (TaskId p : andj->producers) {
        if (!state_[p].out_flat) {
          complete = false;
          break;
        }
        key.push_back(state_[p].out_flat.get());
      }
      if (!complete || reuse(key)) continue;
      std::vector<ModelPtr> fitted;
      fitted.reserve(andj->producers.size());
      for (TaskId p : andj->producers)
        fitted.push_back(fit_sem(*state_[p].out_flat, andj->period));
      st.act_flat = and_combine(fitted);
      continue;
    }
    if (const auto* packed = std::get_if<PackedActivation>(&spec)) {
      std::vector<const void*> key;
      key.reserve(packed->inputs.size());
      std::vector<PackInput> inputs;
      inputs.reserve(packed->inputs.size());
      bool complete = true;
      for (const auto& in : packed->inputs) {
        ModelPtr m;
        if (const auto* tid = std::get_if<TaskId>(&in.source)) {
          m = state_[*tid].out_flat;
        } else {
          m = std::get<ModelPtr>(in.source);
        }
        if (!m) {
          complete = false;
          break;
        }
        key.push_back(m.get());
        inputs.push_back(PackInput{std::move(m), in.coupling});
      }
      if (!complete || (st.act_hem && reuse(key))) continue;
      if (!st.act_hem) {
        st.act_key = key;
        ++stats_.models_rebuilt;
      }
      st.act_hem = pack(inputs, packed->timer);
      st.act_flat = st.act_hem->outer();
      continue;
    }
    if (const auto* up = std::get_if<UnpackedActivation>(&spec)) {
      const TaskState& frame = state_[up->frame_task];
      if (!frame.out_hem) continue;
      const ModelPtr& inner = frame.out_hem->inner(up->index);
      if (st.act_flat.get() == inner.get())
        ++stats_.models_reused;
      else
        ++stats_.models_rebuilt;
      st.act_flat = inner;
      continue;
    }
  }
}

void CpaEngine::check_resource_load() {
  obs::Span span("engine", "check_resource_load");
  const auto& tasks = system_.tasks();
  for (ResourceId r = 0; r < system_.resources().size(); ++r) {
    // The load changes only when one of the resource's activation nodes
    // does; each node memoises its exact rate.
    bool complete = true;
    bool stale = false;
    for (TaskId t : resource_tasks_[r]) {
      if (!state_[t].act_flat) {
        complete = false;
        break;
      }
      stale = stale || state_[t].load_key != state_[t].act_flat.get();
    }
    if (!complete) continue;
    if (stale) {
      double sum = 0.0;
      for (TaskId t : resource_tasks_[r]) {
        sum += state_[t].act_flat->long_run_rate() * static_cast<double>(tasks[t].cet.worst);
        state_[t].load_key = state_[t].act_flat.get();
      }
      resource_load_[r] = sum;
    }
    const double load = resource_load_[r];
    if (!overloaded(load)) continue;
    if (options_.strict)
      throw AnalysisError("CpaEngine: resource '" + system_.resources()[r].name +
                              "' is overloaded (load " + std::to_string(load) + " > 1)",
                          ErrorCode::kOverload);
    resource_overloaded_[r] = 1;
    resource_diag_[r] = Diagnostic{Severity::kError, DiagCode::kResourceOverload,
                                   system_.resources()[r].name,
                                   "long-run load " + std::to_string(load) +
                                       " exceeds 1; tasks receive fallback bounds",
                                   current_iteration_};
  }
}

void CpaEngine::apply_resource_fallback(ResourceId r, const std::vector<TaskId>& ids,
                                        TaskStatus status, DiagCode code,
                                        const std::string& detail) {
  const auto& tasks = system_.tasks();
  const Policy policy = system_.resources()[r].policy;
  // The linear utilisation envelope assumes a work-conserving resource; the
  // slotted policies (TDMA, FlexRay static) idle between slots, so only
  // infinity is sound there.
  const bool work_conserving = policy == Policy::kSppPreemptive ||
                               policy == Policy::kSpnpCan || policy == Policy::kEdf ||
                               policy == Policy::kRoundRobin;
  Time envelope = kTimeInfinity;
  if (work_conserving) {
    std::vector<EnvelopeTask> inputs;
    for (TaskId t : ids) inputs.push_back(EnvelopeTask{state_[t].act_flat, tasks[t].cet.worst});
    envelope = utilization_wcrt_envelope(inputs);
  }
  for (TaskId t : ids) {
    TaskState& st = state_[t];
    st.analyzed = true;
    st.bcrt = tasks[t].cet.best;
    st.wcrt = std::max(envelope, st.bcrt);
    st.q_max = is_infinite(st.wcrt) ? kCountInfinity : st.act_flat->eta_plus(st.wcrt);
    st.backlog = st.q_max;
    st.busy = st.wcrt;
    st.status = status;
    st.has_diag = true;
    st.diag = Diagnostic{Severity::kError, code, tasks[t].name, detail, current_iteration_};
  }
}

std::shared_ptr<const sched::LocalAnalysis> CpaEngine::make_local_analysis(
    ResourceId r, const std::vector<TaskId>& ids) const {
  const auto& tasks = system_.tasks();
  const ResourceSpec& res = system_.resources()[r];
  // The analysis owns copies of the task parameters (shared_ptr activation
  // nodes included).
  std::vector<sched::TaskParams> params;
  for (TaskId t : ids)
    params.push_back(sched::TaskParams{tasks[t].name, tasks[t].priority, tasks[t].cet,
                                       state_[t].act_flat, tasks[t].slot, tasks[t].deadline});
  return std::make_shared<const sched::LocalAnalysis>(res.policy, std::move(params), limits_,
                                                      res.tdma_cycle, res.slot_length);
}

void CpaEngine::analyze_resources() {
  const std::size_t n_res = system_.resources().size();

  // Analyse the resolved subset of each resource's tasks.  Tasks whose
  // activation depends on not-yet-analysed producers (e.g. same-resource
  // chains) join in a later global iteration; interference only grows, so
  // the iteration converges to the full-fixpoint result and the final
  // round always covers the complete task set.
  std::vector<std::vector<TaskId>> ids(n_res);
  for (ResourceId r = 0; r < n_res; ++r)
    for (TaskId t : resource_tasks_[r])
      if (state_[t].act_flat) ids[r].push_back(t);

  // Dirty set: a resource must be re-analysed iff the resolved task subset
  // or any resolved activation node changed since its last local analysis.
  // Nodes are immutable, so unchanged pointers guarantee an identical
  // analysis input and the prior ResponseResults (and per-task statuses /
  // diagnostics) are reused verbatim.  Resources whose tasks carry fallback
  // bounds stay dirty so their degradation record (incl. the iteration it
  // was raised in) tracks the classic engine exactly.
  std::vector<ResourceId> dirty;
  std::vector<const char*> causes;  ///< parallel to `dirty`; trace-span labels
  for (ResourceId r = 0; r < n_res; ++r) {
    if (ids[r].empty()) continue;
    const char* cause = options_.incremental ? nullptr : "full-reanalysis";
    for (TaskId t : ids[r]) {
      if (cause != nullptr) break;
      if (state_[t].act_flat.get() != state_[t].analyzed_act)
        cause = state_[t].analyzed_act == nullptr ? "first-analysis" : "activation-changed";
      else if (state_[t].status != TaskStatus::kConverged)
        cause = "degraded-status";
    }
    if (cause == nullptr) {
      ++stats_.local_analyses_skipped;
      obs::instant("engine", [&] { return "clean:" + system_.resources()[r].name; });
      continue;
    }
    dirty.push_back(r);
    causes.push_back(cause);
  }
  stats_.local_analyses_run += static_cast<long>(dirty.size());

  // Lower stable activation nodes before the parallel fan-out: a node that
  // survived a previous local analysis unchanged (pointer == analyzed-stamp
  // of a still-dirty resource) will be queried heavily again by this
  // iteration's busy-window fixpoints, so its delta samples are frozen once
  // into the flat compiled form (rtc/compile.hpp) and every query becomes a
  // binary search with zero virtual dispatch or atomic memo traffic.
  // Compilation happens serially here and depends only on pointer stamps,
  // keeping `models_compiled` deterministic across job counts; queries
  // beyond the compiled horizon fall back to the lazy DAG unchanged.
  if (options_.compile_curves) {
    obs::Span span("engine", "compile_activations");
    for (ResourceId r : dirty) {
      for (TaskId t : ids[r]) {
        const TaskState& st = state_[t];
        if (!st.act_flat || st.act_flat.get() != st.analyzed_act) continue;
        if (st.act_flat->compiled() != nullptr) continue;
        st.act_flat->ensure_compiled(compile_options_for(st.busy));
        ++stats_.models_compiled;
      }
    }
  }

  // Reset the transient analysis outcome only where a fresh analysis will
  // rewrite it; skipped resources keep last iteration's statuses.
  for (ResourceId r : dirty) {
    for (TaskId t : ids[r]) {
      state_[t].status = TaskStatus::kConverged;
      state_[t].has_diag = false;
    }
  }

  // Flatten the dirty resources into per-TASK work units (one busy-window
  // fixpoint each) so a single wide resource parallelises just as well as
  // many narrow ones.  Each unit writes only its own disjoint result/error
  // slot; shared upstream event-model nodes are safe to query concurrently
  // (lock-free memoisation, see core/curve_cache.hpp).  The reduction below
  // runs serially in resource/task order, so recorded results, diagnostics,
  // and which error wins are bit-identical for every job count.
  struct ResourceWork {
    ResourceId r = 0;
    const std::vector<TaskId>* ids = nullptr;
    const char* cause = "";
    /// Null: overload pre-check fallback, no units.
    std::shared_ptr<const sched::LocalAnalysis> analysis;
    std::vector<sched::ResponseResult> results;
    std::vector<std::exception_ptr> errors;
    /// Lowest task slot that failed so far (racy CAS-min).  A unit only
    /// skips when a LOWER slot of its own resource already failed — the
    /// same units the serial early-stop path would skip — so the winning
    /// (lowest-index) error is identical for every job count.
    std::atomic<std::size_t> first_fail{static_cast<std::size_t>(-1)};
  };
  std::deque<ResourceWork> work;
  std::vector<std::pair<ResourceWork*, std::size_t>> units;  ///< (resource, task slot)
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const ResourceId r = dirty[i];
    work.emplace_back();
    ResourceWork& w = work.back();
    w.r = r;
    w.ids = &ids[r];
    w.cause = causes[i];
    if (!options_.strict && resource_overloaded_[r]) continue;  // handled in the reduction
    w.analysis = make_local_analysis(r, ids[r]);
    w.results.resize(ids[r].size());
    w.errors.resize(ids[r].size());
    for (std::size_t q = 0; q < ids[r].size(); ++q) units.emplace_back(&w, q);
  }

  const auto run_unit = [&](std::size_t u) {
    ResourceWork& w = *units[u].first;
    const std::size_t q = units[u].second;
    if (q > w.first_fail.load(std::memory_order_relaxed)) return;
    obs::Span span("engine", [&] { return "local:" + system_.resources()[w.r].name; });
    span.arg("cause", w.cause);
    span.arg("iteration", static_cast<long>(current_iteration_));
    span.arg("task", system_.tasks()[(*w.ids)[q]].name);
    try {
      w.results[q] = w.analysis->analyze(q);
    } catch (...) {
      w.errors[q] = std::current_exception();
      std::size_t cur = w.first_fail.load(std::memory_order_relaxed);
      while (q < cur &&
             !w.first_fail.compare_exchange_weak(cur, q, std::memory_order_relaxed)) {
      }
    }
  };

  const int jobs = effective_jobs();
  if (jobs <= 1 || units.size() <= 1) {
    // Serial early-stop: once a resource fails, its remaining (higher-slot)
    // units are skipped by the first_fail guard inside run_unit.
    for (std::size_t u = 0; u < units.size(); ++u) run_unit(u);
  } else {
    if (!pool_) {
      // Worker auto-cap: more threads than work units can never help, and
      // more threads than hardware cores only adds contention for this
      // pure-CPU workload — `--jobs 8` on a small system or a small machine
      // must never run slower than `--jobs 1`.  (stats_.jobs still reports
      // the requested value.)
      auto cap = std::min<std::size_t>(static_cast<std::size_t>(jobs),
                                       std::max<std::size_t>(system_.tasks().size(), 1));
      const unsigned hw = std::thread::hardware_concurrency();
      if (hw > 0) cap = std::min<std::size_t>(cap, hw);
      pool_ = std::make_unique<exec::WorkPool>(static_cast<int>(cap));
    }
    pool_->run(units.size(), run_unit);
  }

  // Deterministic reduction in resource order.  State mutation (recording
  // results, fallback bounds, analyzed-stamps) is all serial from here on.
  const auto mark_analyzed = [&](const std::vector<TaskId>& rids) {
    for (TaskId t : rids) state_[t].analyzed_act = state_[t].act_flat.get();
  };
  std::exception_ptr first_strict_error;
  for (ResourceWork& w : work) {
    if (!w.analysis) {
      // Overload pre-check tripped (graceful mode): no local analysis ran.
      obs::Span span("engine", [&] { return "local:" + system_.resources()[w.r].name; });
      span.arg("cause", w.cause);
      span.arg("iteration", static_cast<long>(current_iteration_));
      apply_resource_fallback(w.r, *w.ids, TaskStatus::kOverloaded, DiagCode::kResourceOverload,
                              "resource '" + system_.resources()[w.r].name +
                                  "' overloaded; unbounded fallback WCRT substituted");
      mark_analyzed(*w.ids);
      continue;
    }
    std::exception_ptr err;
    for (const std::exception_ptr& e : w.errors) {
      if (e) {
        err = e;
        break;
      }
    }
    if (!err) {
      for (std::size_t q = 0; q < w.ids->size(); ++q) {
        TaskState& st = state_[(*w.ids)[q]];
        st.analyzed = true;
        st.bcrt = w.results[q].bcrt;
        st.wcrt = w.results[q].wcrt;
        st.q_max = w.results[q].activations;
        st.backlog = w.results[q].backlog;
        st.busy = w.results[q].busy_period;
      }
      mark_analyzed(*w.ids);
      continue;
    }
    if (options_.strict) {
      // Keep only the lowest-numbered resource's failure - exactly the one
      // the serial engine would have thrown first.
      if (!first_strict_error) first_strict_error = err;
      continue;
    }
    try {
      std::rethrow_exception(err);
    } catch (const AnalysisError& e) {
      // Cancellation is a request to stop, not a failure to degrade around.
      if (e.code() == ErrorCode::kCancelled) throw;
      apply_resource_fallback(w.r, *w.ids, status_for(e.code()), diag_for(e.code()), e.what());
      mark_analyzed(*w.ids);
    }
    // Non-AnalysisError exceptions (e.g. invalid parameter sets) escape the
    // catch above and propagate, as they always did.
  }
  if (first_strict_error) std::rethrow_exception(first_strict_error);
}

void CpaEngine::compute_outputs() {
  obs::Span span("engine", "compute_outputs");
  span.arg("iteration", static_cast<long>(current_iteration_));
  const bool inc = options_.incremental;
  const auto& tasks = system_.tasks();
  for (TaskId t = 0; t < tasks.size(); ++t) {
    TaskState& st = state_[t];
    if (!st.analyzed) continue;

    // Outputs are a pure function of (activation node, r-, r+); when none
    // of them moved, last iteration's output nodes - including any
    // degradation flags and inner-update diagnostics - carry over.
    const void* act = st.act_flat.get();
    const void* hem = st.act_hem ? static_cast<const void*>(st.act_hem.get()) : nullptr;
    if (inc && st.out_flat && act == st.out_key_act && hem == st.out_key_hem &&
        st.bcrt == st.out_key_bcrt && st.wcrt == st.out_key_wcrt) {
      ++stats_.models_reused;
      continue;
    }
    st.out_key_act = act;
    st.out_key_hem = hem;
    st.out_key_bcrt = st.bcrt;
    st.out_key_wcrt = st.wcrt;
    st.hem_degraded = false;
    st.out_has_diag = false;
    ++stats_.models_rebuilt;

    if (is_infinite(st.wcrt)) {
      // No finite response bound: the output degrades to the sporadic
      // envelope (consecutive completions of one task stay >= r- apart,
      // no arrival guarantee).
      const Time spacing = std::max<Time>(st.bcrt, 0);
      st.out_flat = std::make_shared<SporadicEnvelopeModel>(spacing);
      if (st.act_hem) {
        st.out_hem = degraded_hem_output(st.out_flat, st.act_hem->inner_count(), spacing);
        st.hem_degraded = true;
      }
      continue;
    }
    st.out_flat = std::make_shared<OutputModel>(st.act_flat, st.bcrt, st.wcrt);
    if (options_.propagate_fitted_sem) st.out_flat = fit_sem(*st.out_flat);
    if (!st.act_hem) continue;
    if (options_.strict) {
      st.out_hem = st.act_hem->after_response(st.bcrt, st.wcrt);
      continue;
    }
    try {
      st.out_hem = st.act_hem->after_response(st.bcrt, st.wcrt);
    } catch (const AnalysisError& e) {
      if (e.code() == ErrorCode::kCancelled) throw;
      const Time spacing = std::max<Time>(st.bcrt, 0);
      st.out_hem = degraded_hem_output(st.out_flat, st.act_hem->inner_count(), spacing);
      st.hem_degraded = true;
      st.out_has_diag = true;
      st.out_diag = Diagnostic{Severity::kWarning, DiagCode::kInnerUpdateUnbounded,
                               tasks[t].name, e.what(), current_iteration_};
    }
  }
}

bool CpaEngine::update_convergence() {
  obs::Span span("engine", "update_convergence");
  bool all_equal = have_prev_;
  for (std::size_t t = 0; t < state_.size(); ++t) {
    TaskState& st = state_[t];
    bool changed = !have_prev_;
    if (!changed) {
      if (st.analyzed != st.prev_analyzed || st.bcrt != st.prev_bcrt ||
          st.wcrt != st.prev_wcrt) {
        changed = true;
      } else if (st.act_flat.get() != st.prev_act.get()) {
        // A genuinely rebuilt node may still be semantically identical
        // (the classic fixpoint shape: values converged but nodes were
        // reconstructed); compare curves with early exit on the memoised
        // samples up to the convergence horizon.
        changed = !st.act_flat || !st.prev_act ||
                  !models_equal(*st.act_flat, *st.prev_act, options_.compare_horizon);
      }
    }
    changed_[t] = changed ? 1 : 0;
    all_equal = all_equal && !changed;
    st.prev_analyzed = st.analyzed;
    st.prev_bcrt = st.bcrt;
    st.prev_wcrt = st.wcrt;
    st.prev_act = st.act_flat;
  }
  have_prev_ = true;
  return all_equal;
}

void CpaEngine::finalize_divergence(bool budget_hit) {
  // Called in graceful mode when the global loop stopped without a fixpoint.
  // Bounds of tasks whose activation curves were still moving (or whose
  // producers'/resource-mates' were) are not sound; replace them with the
  // unbounded fallback.  Tasks whose entire dependency cone stabilised keep
  // their genuine fixpoint results.
  const auto& tasks = system_.tasks();
  std::vector<char> unstable(tasks.size(), 0);
  for (TaskId t = 0; t < tasks.size(); ++t)
    unstable[t] = !state_[t].analyzed || !have_prev_ || changed_[t];

  const auto is_unstable = [&](TaskId p) { return unstable[p] != 0; };
  bool changed = true;
  while (changed) {
    changed = false;
    for (TaskId t = 0; t < tasks.size(); ++t) {
      if (unstable[t]) continue;
      const std::vector<TaskId> producers = referenced_tasks(system_.activation(t));
      // Interference path: a resource-mate whose activation is unstable
      // makes this task's interference bound unstable as well.
      const std::vector<TaskId>& mates = resource_tasks_[tasks[t].resource];
      const bool taint = std::any_of(producers.begin(), producers.end(), is_unstable) ||
                         std::any_of(mates.begin(), mates.end(), is_unstable);
      if (taint) {
        unstable[t] = 1;
        changed = true;
      }
    }
  }

  const TaskStatus status = budget_hit ? TaskStatus::kBudgetExhausted : TaskStatus::kDiverged;
  const DiagCode code = budget_hit ? DiagCode::kWallClockBudget : DiagCode::kGlobalIterationLimit;
  for (TaskId t = 0; t < tasks.size(); ++t) {
    if (!unstable[t]) continue;
    TaskState& st = state_[t];
    if (st.status != TaskStatus::kConverged) continue;  // keep the own-failure record
    if (!st.analyzed) {
      st.diag = Diagnostic{Severity::kError, DiagCode::kUnresolvedActivation, tasks[t].name,
                           "activation never resolved (dependency cycle cannot bootstrap)",
                           current_iteration_};
      if (!st.act_flat) st.act_flat = std::make_shared<SporadicEnvelopeModel>(0);
      st.analyzed = true;
    } else {
      st.diag = Diagnostic{
          Severity::kError, code, tasks[t].name,
          budget_hit ? "wall-clock budget exhausted before the global fixpoint"
                     : "no global fixpoint; last-iteration bounds unsound, substituting infinity",
          current_iteration_};
    }
    st.has_diag = true;
    st.status = status;
    st.bcrt = std::min(st.bcrt, tasks[t].cet.best);
    st.wcrt = kTimeInfinity;
    st.q_max = kCountInfinity;
    st.backlog = kCountInfinity;
    st.busy = kTimeInfinity;
    const Time spacing = std::max<Time>(st.bcrt, 0);
    st.out_flat = std::make_shared<SporadicEnvelopeModel>(spacing);
    if (st.act_hem) {
      st.out_hem = degraded_hem_output(st.out_flat, st.act_hem->inner_count(), spacing);
      st.hem_degraded = true;
    }
  }
}

void CpaEngine::taint_downstream() {
  const auto& tasks = system_.tasks();
  const auto degraded = [&](TaskId p) { return state_[p].status != TaskStatus::kConverged; };
  bool changed = true;
  while (changed) {
    changed = false;
    for (TaskId t = 0; t < tasks.size(); ++t) {
      TaskState& st = state_[t];
      if (st.status != TaskStatus::kConverged) continue;
      const std::vector<TaskId> producers = referenced_tasks(system_.activation(t));
      bool taint = std::any_of(producers.begin(), producers.end(), degraded);
      // An unpacked inner stream is also degraded when its frame's inner
      // streams were replaced by fallback envelopes.
      if (const auto* up = std::get_if<UnpackedActivation>(&system_.activation(t)))
        taint = taint || state_[up->frame_task].hem_degraded;
      if (!taint) continue;
      st.status = TaskStatus::kDegradedUpstream;
      if (!st.has_diag && !st.out_has_diag) {
        st.has_diag = true;
        st.diag = Diagnostic{Severity::kWarning, DiagCode::kDegradedUpstream, tasks[t].name,
                             "activation derives from a producer with fallback bounds",
                             current_iteration_};
      }
      changed = true;
    }
  }
}

AnalysisReport CpaEngine::assemble_report(int iterations, bool converged) {
  obs::Span span("engine", "assemble_report");
  AnalysisReport report;
  report.iterations = iterations;
  report.converged = converged;
  report.stats = stats_;
  for (const auto& [r, diag] : resource_diag_) report.diagnostics.report(diag);
  const auto& tasks = system_.tasks();
  for (TaskId t = 0; t < tasks.size(); ++t) {
    const TaskState& st = state_[t];
    TaskResult res;
    res.name = tasks[t].name;
    res.resource = system_.resources()[tasks[t].resource].name;
    res.bcrt = st.bcrt;
    res.wcrt = st.wcrt;
    res.activations_in_busy_period = st.q_max;
    res.backlog = st.backlog;
    res.busy_period = st.busy;
    res.activation = st.act_flat;
    res.output = st.out_flat;
    res.hem_output = st.out_hem;
    res.status = st.status;
    res.utilization = long_run_rate(*st.act_flat) * static_cast<double>(tasks[t].cet.worst);
    if (st.has_diag)
      report.diagnostics.report(st.diag);
    else if (st.out_has_diag)
      report.diagnostics.report(st.out_diag);
    report.tasks.push_back(std::move(res));
  }
  return report;
}

AnalysisReport CpaEngine::run() {
  using clock = std::chrono::steady_clock;
  limits_ = options_.fixpoint_limits;
  if (options_.cancel != nullptr) limits_.cancel = options_.cancel;
  if (options_.wall_clock_budget_ms > 0) {
    const auto deadline = clock::now() + std::chrono::milliseconds(options_.wall_clock_budget_ms);
    limits_.deadline = std::min(limits_.deadline, deadline);
  }
  const bool budgeted = limits_.deadline != clock::time_point::max();
  stats_ = EngineStats{};
  stats_.jobs = effective_jobs();

  // Baselines for the engine.cache.* snapshot-diff published at the end of
  // the run (all zero deltas when obs counting is off).
  const long cache_hit0 = g_cache_hit.value();
  const long cache_miss0 = g_cache_miss.value();
  const long cache_race0 = g_cache_race.value();
  const long cache_alloc0 = g_cache_alloc.value();
  const long rec_extend0 = g_cache_rec_extend.value();
  const long rec_race0 = g_cache_rec_race.value();

  int iter = 0;
  bool converged = false;
  bool budget_hit = false;

  {
    obs::Span run_span("engine", "CpaEngine::run");
    run_span.arg("tasks", static_cast<long>(system_.tasks().size()));
    run_span.arg("resources", static_cast<long>(system_.resources().size()));
    run_span.arg("jobs", static_cast<long>(stats_.jobs));

    for (iter = 1; iter <= options_.max_iterations; ++iter) {
      current_iteration_ = iter;
      if (limits_.cancel != nullptr && limits_.cancel->cancelled())
        throw AnalysisError("CpaEngine: cancelled (" +
                                std::string(exec::to_string(limits_.cancel->reason())) +
                                ") before iteration " + std::to_string(iter),
                            ErrorCode::kCancelled);
      if (budgeted && clock::now() >= limits_.deadline) {
        budget_hit = true;
        break;
      }
      obs::Span iter_span("engine", "iteration");
      iter_span.arg("n", static_cast<long>(iter));
      resource_overloaded_.assign(system_.resources().size(), 0);
      resource_diag_.clear();

      resolve_activations();
      if (options_.check_overload) check_resource_load();
      analyze_resources();
      compute_outputs();

      const bool all_analyzed = std::all_of(state_.begin(), state_.end(),
                                            [](const TaskState& s) { return s.analyzed; });
      const bool stable = update_convergence();
      if (all_analyzed && stable) {
        converged = true;
        break;
      }
    }
    if (iter > options_.max_iterations) iter = options_.max_iterations;
    obs::instant("engine", [&] {
      return converged ? std::string("converged")
                       : std::string(budget_hit ? "budget-exhausted" : "iteration-limit");
    }, {{"iterations", std::to_string(iter)}});
  }

  if (!converged) {
    if (options_.strict) {
      std::string unresolved;
      for (TaskId t = 0; t < system_.tasks().size(); ++t) {
        if (!state_[t].analyzed)
          unresolved += (unresolved.empty() ? "" : ", ") + system_.tasks()[t].name;
      }
      throw AnalysisError(
          "CpaEngine: no fixpoint after " + std::to_string(options_.max_iterations) +
              " global iterations" +
              (unresolved.empty() ? std::string(" (cyclic dependency diverging)")
                                  : " (unresolved activations: " + unresolved +
                                        " - likely a dependency cycle that cannot bootstrap)"),
          budget_hit ? ErrorCode::kTimeBudget : ErrorCode::kIterationLimit);
    }
    finalize_divergence(budget_hit);
  }

  if (!options_.strict) taint_downstream();

  // A converged run's model nodes are final: lower every task's activation
  // and output stream so report consumers (the utilization sample,
  // ModelChecker sweeps, downstream what-if queries) hit the compiled fast
  // path.  Beyond the compiled horizon queries fall back to the lazy DAG,
  // so this is pure acceleration, never an approximation.
  if (converged && options_.compile_curves) {
    obs::Span span("engine", "compile_converged");
    for (TaskState& st : state_) {
      for (const ModelPtr& m : {st.act_flat, st.out_flat}) {
        if (m && m->compiled() == nullptr) {
          m->ensure_compiled(compile_options_for(st.busy));
          ++stats_.models_compiled;
        }
      }
    }
  }

  AnalysisReport report = assemble_report(iter, converged);
  if (!converged) {
    report.diagnostics.report(Diagnostic{
        Severity::kError,
        budget_hit ? DiagCode::kWallClockBudget : DiagCode::kGlobalIterationLimit, "system",
        budget_hit
            ? "wall-clock budget (" + std::to_string(options_.wall_clock_budget_ms) +
                  " ms) exhausted after " + std::to_string(iter) + " global iterations"
            : "no global fixpoint within " + std::to_string(options_.max_iterations) +
                  " iterations",
        current_iteration_});
  }

  // Publish the run's work counters into the shared registry (see the
  // g_eng_* declarations above); EngineStats stays the authoritative,
  // per-run view inside the report.
  stats_.cache_hits = g_cache_hit.value() - cache_hit0;
  stats_.cache_misses = g_cache_miss.value() - cache_miss0;
  stats_.cache_publish_races = g_cache_race.value() - cache_race0;
  stats_.cache_segment_allocs = g_cache_alloc.value() - cache_alloc0;
  stats_.rec_extends = g_cache_rec_extend.value() - rec_extend0;
  stats_.rec_publish_races = g_cache_rec_race.value() - rec_race0;
  report.stats = stats_;

  g_eng_analyses_run.add(stats_.local_analyses_run);
  g_eng_analyses_skipped.add(stats_.local_analyses_skipped);
  g_eng_models_reused.add(stats_.models_reused);
  g_eng_models_rebuilt.add(stats_.models_rebuilt);
  g_eng_iterations.add(iter);
  return report;
}

}  // namespace hem::cpa
