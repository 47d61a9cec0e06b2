#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "exec/analysis_attempt.hpp"
#include "exec/journal.hpp"
#include "exec/worker_process.hpp"
#include "inputs.hpp"
#include "io/csv.hpp"
#include "model/cpa_engine.hpp"

namespace bench {

namespace {

using Interval = std::pair<double, double>;  // [begin, end) in ms

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Length of the union of `spans` clipped to [lo, hi).
double covered(std::vector<Interval> spans, double lo, double hi) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double reach = lo;
  for (const auto& [b, e] : spans) {
    const double from = std::max(b, reach);
    const double to = std::min(e, hi);
    if (to > from) {
      total += to - from;
      reach = to;
    }
  }
  return total;
}

hem::cpa::EngineOptions engine_options(const hem::cpa::ParsedSystem& parsed, int jobs,
                                       bool compile) {
  hem::cpa::EngineOptions eo;
  eo.jobs = jobs;
  eo.strict = parsed.strict;
  eo.check_overload = parsed.check_overload;
  eo.compile_curves = compile;
  return eo;
}

/// Wall ms of one CpaEngine::run on a freshly parsed system (cold memo
/// caches: reusing a System would let the first run warm the next).
double engine_wall_ms(const std::string& text, int jobs, bool compile) {
  const hem::cpa::ParsedSystem parsed = parse_config(text);
  hem::cpa::CpaEngine engine(parsed.system, engine_options(parsed, jobs, compile));
  const auto t0 = Clock::now();
  (void)engine.run();
  return ms_since(t0);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct EngineSplit {
  double run = 0, local = 0, resolve = 0, outputs = 0, serial_rest = 0;
};

/// Split one traced CpaEngine::run into its phases.  Local analyses run on
/// pool threads, so an iteration's serial remainder subtracts the union of
/// its same-thread phases and every local span that overlaps it.
EngineSplit split_engine_run(const std::vector<hem::obs::TraceEvent>& events) {
  EngineSplit s;
  std::vector<Interval> phases;
  std::vector<Interval> locals;
  std::vector<Interval> iterations;
  for (const hem::obs::TraceEvent& ev : events) {
    if (ev.phase != 'X') continue;
    const Interval iv{ns_to_ms(ev.ts_ns), ns_to_ms(ev.ts_ns + ev.dur_ns)};
    const double d = ns_to_ms(ev.dur_ns);
    if (ev.name == "CpaEngine::run") {
      s.run += d;
    } else if (ev.name == "iteration") {
      iterations.push_back(iv);
    } else if (ev.name == "resolve_activations") {
      s.resolve += d;
      phases.push_back(iv);
    } else if (ev.name == "compute_outputs") {
      s.outputs += d;
      phases.push_back(iv);
    } else if (ev.name.rfind("local:", 0) == 0) {
      locals.push_back(iv);
      phases.push_back(iv);
    }
  }
  s.local = covered(locals, 0.0, 1e300);
  for (const auto& [b, e] : iterations) s.serial_rest += (e - b) - covered(phases, b, e);
  return s;
}

struct DaemonProbe {
  std::vector<double> ping_ms, submit_ms, dispatch_wait_ms;
  long responses = 0, cached = 0, fresh = 0, warm_seeded = 0, rejects = 0;
};

/// One timed submit + wait_result.  Mix requests count towards the shares.
void daemon_request(hem::daemon::Client& client, const std::string& text, bool mix,
                    DaemonProbe& p) {
  const auto t0 = Clock::now();
  const DaemonReply reply = daemon_call(client, text);
  const double total = ms_since(t0);
  p.submit_ms.push_back(reply.submit_ms);
  if (!reply.accepted) {
    ++p.rejects;
    return;
  }
  if (!reply.cached) {
    p.dispatch_wait_ms.push_back(total - static_cast<double>(reply.duration_ms));
    ++p.fresh;
    if (reply.warm_seeded > 0) ++p.warm_seeded;
  }
  if (mix) {
    ++p.responses;
    if (reply.cached) ++p.cached;
  }
}

DaemonProbe probe_daemon(const Env& env, const std::string& dir) {
  DaemonProbe p;
  make_dirs(dir);
  const hem::daemon::ServerOptions opts = daemon_options(dir);
  hem::daemon::Server server(opts);
  server.start();
  {
    hem::daemon::Client client(opts.socket_path);
    for (int i = 0; i < 50; ++i) {
      const auto t0 = Clock::now();
      (void)client.ping();
      p.ping_ms.push_back(ms_since(t0));
    }
    const std::vector<Input> bases = daemon_bases(env.seed, env.quick ? 8 : 16);
    std::mt19937_64 rng(env.seed);
    for (const Input& in : bases) {
      think(rng);
      daemon_request(client, in.text, false, p);
    }
    EditStream stream(bases, env.seed, 0, 1);
    for (std::size_t i = 0; i < 3 * bases.size(); ++i) {
      bool resubmit = false;
      std::string text = stream.next(resubmit);
      think(rng);
      daemon_request(client, text, true, p);
      if (!resubmit) stream.completed(std::move(text));
    }
  }
  server.request_drain();
  (void)server.wait();
  return p;
}

}  // namespace

std::vector<SpanTotal> self_times(const std::vector<hem::obs::TraceEvent>& events) {
  std::vector<const hem::obs::TraceEvent*> spans;
  for (const hem::obs::TraceEvent& ev : events)
    if (ev.phase == 'X') spans.push_back(&ev);
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
    return a->dur_ns > b->dur_ns;
  });
  std::map<std::string, SpanTotal> totals;
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto* ev = spans[i];
    while (!stack.empty() && (spans[stack.back()]->tid != ev->tid ||
                              spans[stack.back()]->ts_ns + spans[stack.back()]->dur_ns <= ev->ts_ns))
      stack.pop_back();
    if (!stack.empty()) child_ms[stack.back()] += ns_to_ms(ev->dur_ns);
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name =
        spans[i]->name.rfind("local:", 0) == 0 ? std::string("local:*") : spans[i]->name;
    SpanTotal& t = totals[name];
    t.name = name;
    ++t.count;
    t.total_ms += ns_to_ms(spans[i]->dur_ns);
    t.self_ms += ns_to_ms(spans[i]->dur_ns) - child_ms[i];
  }
  std::vector<SpanTotal> out;
  for (auto& [name, t] : totals) out.push_back(t);
  std::sort(out.begin(), out.end(),
            [](const SpanTotal& a, const SpanTotal& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::vector<Metric> probe_layers(const Workload& w, const Env& env,
                                 const std::vector<Reference>& refs, const std::string& dir) {
  make_dirs(dir);
  const std::vector<Input>& all = w.inputs();
  const std::vector<Input> inputs(all.begin(),
                                  all.begin() + std::min<std::ptrdiff_t>(
                                                    static_cast<std::ptrdiff_t>(all.size()),
                                                    env.quick ? 2 : 8));
  const long n = static_cast<long>(inputs.size());
  const int jobs = w.engine_jobs();
  const int wide_jobs = std::min(4, env.nproc);
  std::vector<Metric> m;
  const auto add = [&m](const char* name, const char* unit, double value, long samples) {
    m.push_back({name, unit, value, samples});
  };

  // config: parse_system_config, median of three per input.
  std::vector<double> parse_ms;
  for (const Input& in : inputs) {
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      (void)parse_config(in.text);
      reps.push_back(ms_since(t0));
    }
    parse_ms.push_back(median(reps));
  }
  add("config.parse_ms", "ms", mean(parse_ms), n * 3);

  // engine phases and curve memo: one traced run per input.
  EngineSplit split;
  hem::cpa::EngineStats curve;
  std::vector<double> render_ms;
  for (const Input& in : inputs) {
    const hem::cpa::ParsedSystem parsed = parse_config(in.text);
    hem::cpa::CpaEngine engine(parsed.system, engine_options(parsed, jobs, true));
    hem::obs::Tracer tracer;
    hem::obs::set_tracer(&tracer);
    const hem::cpa::AnalysisReport report = engine.run();
    hem::obs::set_tracer(nullptr);
    const EngineSplit s = split_engine_run(tracer.snapshot());
    split.run += s.run;
    split.local += s.local;
    split.resolve += s.resolve;
    split.outputs += s.outputs;
    split.serial_rest += s.serial_rest;
    curve.cache_hits += report.stats.cache_hits;
    curve.cache_misses += report.stats.cache_misses;
    curve.rec_extends += report.stats.rec_extends;
    // render: io::write_report_csv of this report, median of three.
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      std::ostringstream os;
      const auto t0 = Clock::now();
      hem::io::write_report_csv(os, report);
      reps.push_back(ms_since(t0));
    }
    render_ms.push_back(median(reps));
  }
  hem::obs::set_counting(false);
  const double dn = static_cast<double>(std::max(1L, n));
  add("engine.run_ms", "ms", split.run / dn, n);
  add("engine.local_ms", "ms", split.local / dn, n);
  add("engine.resolve_ms", "ms", split.resolve / dn, n);
  add("engine.outputs_ms", "ms", split.outputs / dn, n);
  add("engine.serial_rest_ms", "ms", split.serial_rest / dn, n);

  // Untraced runs: jobs 1 against min(4, nproc), and compile_curves off.
  double wall1 = 0, wall_wide = 0, wall_off = 0, wall_on = 0, cpu_on = 0;
  for (const Input& in : inputs) {
    wall1 += engine_wall_ms(in.text, 1, true);
    const double cpu0 = cpu_ms_with_children();
    const double on = engine_wall_ms(in.text, jobs, true);
    cpu_on += cpu_ms_with_children() - cpu0;
    wall_on += on;
    wall_wide += jobs == wide_jobs ? on : engine_wall_ms(in.text, wide_jobs, true);
    wall_off += engine_wall_ms(in.text, jobs, false);
  }
  add("engine.jobs_speedup", "ratio", wall_wide > 0 ? wall1 / wall_wide : 0.0, n);
  add("engine.cpu_per_wall", "ratio", wall_on > 0 ? cpu_on / wall_on : 0.0, n);

  const std::map<std::string, std::uint64_t> counts = deterministic_counts(refs);
  const auto count = [&](const char* key) { return static_cast<double>(counts.at(key)); };
  const long nrefs = static_cast<long>(refs.size());
  for (const char* key : {"engine.iterations", "engine.local_analyses_run",
                          "engine.local_analyses_skipped", "engine.models_reused",
                          "engine.models_rebuilt"})
    add(key, "count", count(key), nrefs);

  const long lookups = curve.cache_hits + curve.cache_misses;
  add("curve.cache_hits", "count", static_cast<double>(curve.cache_hits), n);
  add("curve.cache_misses", "count", static_cast<double>(curve.cache_misses), n);
  add("curve.cache_hit_rate", "ratio",
      lookups > 0 ? static_cast<double>(curve.cache_hits) / static_cast<double>(lookups) : 0.0, n);
  add("curve.rec_extends", "count", static_cast<double>(curve.rec_extends), n);

  add("compile.models_compiled", "count", count("compile.models_compiled"), nrefs);
  add("compile.net_ms", "ms", (wall_on - wall_off) / dn, n);
  add("render.ms", "ms", mean(render_ms), n * 3);

  // worker: WorkerProcess::run against the same attempt in-process.
  std::vector<double> fork_ms;
  long abnormal = 0;
  for (const Input& in : inputs) {
    const hem::cpa::ParsedSystem isolated = parse_config(in.text);
    hem::exec::WorkerProcess worker;
    auto t0 = Clock::now();
    const hem::exec::WorkerReport rep = worker.run(
        [&] { return hem::exec::run_analysis_attempt(isolated, in.name, {}, nullptr); }, {},
        nullptr);
    const double worker_ms = ms_since(t0);
    if (rep.kind != hem::exec::WorkerExit::kResult) ++abnormal;
    const hem::cpa::ParsedSystem local = parse_config(in.text);
    t0 = Clock::now();
    (void)hem::exec::run_analysis_attempt(local, in.name, {}, nullptr);
    fork_ms.push_back(worker_ms - ms_since(t0));
  }
  add("worker.fork_overhead_ms", "ms", mean(fork_ms), n);
  add("worker.frame_bytes", "bytes", count("worker.frame_bytes"), nrefs);
  add("worker.abnormal_exits", "count", static_cast<double>(abnormal), n);

  // journal: replay one entry per input into a fresh journal.
  {
    hem::exec::Journal journal(dir + "/replay.journal");
    journal.clear();
    std::vector<double> add_ms;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      hem::exec::JournalEntry e;
      e.config_path = all[i].name;
      e.fingerprint = text_fingerprint(all[i].text);
      e.status = "done";
      e.rows = refs[i].rows;
      const auto t0 = Clock::now();
      journal.add(std::move(e));
      add_ms.push_back(ms_since(t0));
    }
    add("journal.add_ms_first", "ms", add_ms.empty() ? 0.0 : add_ms.front(), 1);
    add("journal.add_ms_last", "ms", add_ms.empty() ? 0.0 : add_ms.back(), 1);
    add("journal.bytes", "bytes",
        static_cast<double>(std::filesystem::file_size(dir + "/replay.journal")), nrefs);
  }

  // batch: makespan x width against the same configs analysed in-process.
  {
    double inproc_ms = 0.0;
    for (const Input& in : inputs) {
      const auto t0 = Clock::now();
      (void)hem::exec::run_analysis_attempt(parse_config(in.text), in.name, {}, nullptr);
      inproc_ms += ms_since(t0);
    }
    const hem::exec::BatchOptions opts = batch_options(dir + "/batch.csv.journal");
    hem::exec::BatchRunner runner(write_configs(inputs, dir + "/batch"), opts);
    const auto t0 = Clock::now();
    const hem::exec::BatchReport report = runner.run();
    const double makespan = ms_since(t0);
    add("batch.overhead_ms_per_config", "ms",
        (makespan * opts.parallel_jobs - inproc_ms) / dn, n);
    add("batch.retries", "count", static_cast<double>(report.retries), n);
    add("batch.watchdog_cancels", "count", static_cast<double>(report.watchdog_cancels), n);
  }

  // daemon: socket round trips and a short edit/resubmit session.
  const DaemonProbe d = probe_daemon(env, dir + "/daemon");
  add("daemon.ping_rtt_ms", "ms", median(d.ping_ms), static_cast<long>(d.ping_ms.size()));
  add("daemon.submit_rtt_ms", "ms", median(d.submit_ms), static_cast<long>(d.submit_ms.size()));
  add("daemon.dispatch_wait_ms", "ms", mean(d.dispatch_wait_ms),
      static_cast<long>(d.dispatch_wait_ms.size()));
  add("daemon.journal_hit_share", "share",
      d.responses > 0 ? static_cast<double>(d.cached) / static_cast<double>(d.responses) : 0.0,
      d.responses);
  add("daemon.warm_seeded_share", "share",
      d.fresh > 0 ? static_cast<double>(d.warm_seeded) / static_cast<double>(d.fresh) : 0.0,
      d.fresh);
  add("daemon.rejects", "count", static_cast<double>(d.rejects),
      static_cast<long>(d.submit_ms.size()));
  return m;
}

}  // namespace bench
