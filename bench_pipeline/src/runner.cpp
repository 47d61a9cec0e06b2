#include "runner.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "obs/exporters.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"

namespace bench {

namespace {

struct Loop {
  std::vector<OpRecord> records;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
};

/// Closed loop: each client sends its next op only after the previous one
/// returned, until `seconds` have passed; the op in flight at the deadline
/// completes and counts.
Loop closed_loop(Workload& w, double seconds) {
  const int clients = w.clients();
  std::vector<std::vector<OpRecord>> per(static_cast<std::size_t>(clients));
  const double cpu0 = cpu_ms_with_children();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  const auto body = [&](int c) {
    for (long seq = 0; Clock::now() < deadline; ++seq)
      per[static_cast<std::size_t>(c)].push_back(w.op(c, seq));
  };
  if (clients == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  }
  Loop loop;
  loop.wall_s = ms_since(t0) / 1e3;
  loop.cpu_ms = cpu_ms_with_children() - cpu0;
  for (auto& recs : per)
    for (OpRecord& rec : recs) loop.records.push_back(std::move(rec));
  return loop;
}

void append(Loop& into, Loop&& from) {
  for (OpRecord& rec : from.records) into.records.push_back(std::move(rec));
  into.wall_s += from.wall_s;
  into.cpu_ms += from.cpu_ms;
}

/// Latencies with failed ops as +inf, so a failure misses every limit.
std::vector<double> latencies(const Loop& loop) {
  std::vector<double> v;
  for (const OpRecord& rec : loop.records)
    v.push_back(rec.ok ? rec.ms : std::numeric_limits<double>::infinity());
  return v;
}

/// Check each op's rows against an in-process reference of the same bytes.
void verify(Loop& loop, const Workload& w, std::map<std::uint64_t, std::uint64_t>& want,
            WorkloadResult& r) {
  for (OpRecord& rec : loop.records) {
    for (const auto& [fp, digest] : rec.outputs) {
      auto it = want.find(fp);
      if (it == want.end()) {
        const Reference ref = analyse_reference("edit", w.text_of(fp), 1);
        if (!ref.ok) {
          r.correct = false;
          r.notes.push_back("in-process reference failed on config " + std::to_string(fp));
        }
        it = want.emplace(fp, ref.digest).first;
      }
      if (rec.ok && digest != it->second) {
        rec.ok = false;
        r.correct = false;
        if (r.notes.size() < 16)
          r.notes.push_back("rows of config " + std::to_string(fp) + " differ from in-process");
      }
    }
  }
}

void add_end_to_end(const std::vector<double>& setup_s, const Loop& loop, WorkloadResult& r) {
  const std::vector<double> lat = latencies(loop);
  const auto n = static_cast<long>(lat.size());
  long configs = 0;
  long ok_configs = 0;
  for (const OpRecord& rec : loop.records) {
    configs += rec.configs;
    if (rec.ok) ok_configs += rec.configs;
  }
  r.metrics.push_back({"setup_s", "s", quantile(setup_s, 0.5), static_cast<long>(setup_s.size())});
  r.metrics.push_back({"latency_p50_ms", "ms", quantile(lat, 0.5), n});
  r.metrics.push_back({"latency_p90_ms", "ms", quantile(lat, 0.9), n});
  // A percentile is reported only with at least ten samples beyond it:
  // p99 needs 1000 ops, which only daemon_edit draws in a run.
  if (n >= 1000) r.extra.push_back({"latency_p99_ms", "ms", quantile(lat, 0.99), n});
  r.metrics.push_back({"throughput_per_s", "1/s",
                       loop.wall_s > 0 ? static_cast<double>(ok_configs) / loop.wall_s : 0.0,
                       ok_configs});
  // CPU per config of the fork- and fsync-heavy workloads drifts with the
  // host by up to a quarter between runs, too much to gate on; it is
  // reported beside the gated metrics.
  r.extra.push_back({"cpu_ms_per_config", "ms",
                     configs > 0 ? loop.cpu_ms / static_cast<double>(configs) : 0.0, configs});
}

std::string format_span(const SpanTotal& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-26s count=%-7ld total_ms=%-12.3f self_ms=%.3f", s.name.c_str(),
                s.count, s.total_ms, s.self_ms);
  return buf;
}

}  // namespace

WorkloadResult run_workload(const RunConfig& cfg) {
  WorkloadResult r;
  r.workload = cfg.workload;
  const std::string dir = cfg.workdir + "/" + cfg.workload;
  const bool per_layer = !cfg.trace_out.empty();
  remove_tree(dir);
  try {
    // Set up several times; the median is setup_s, the last one is measured.
    std::unique_ptr<Workload> w;
    std::vector<double> setup_s;
    for (int k = 0; k < (cfg.env.quick ? 1 : 3); ++k) {
      w.reset();
      const std::string sdir = dir + "/setup" + std::to_string(k);
      make_dirs(sdir);
      const auto t0 = Clock::now();
      w = make_workload(cfg.workload, cfg.env);
      if (w == nullptr) throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
      w->setup(sdir);
      setup_s.push_back(ms_since(t0) / 1e3);
    }

    // The end-to-end run is one untraced segment.  The traced run
    // alternates untraced and traced segments, so drift over the run (the
    // daemon's journal grows) lands on both sides of the overhead ratio.
    Loop plain;
    Loop traced;
    hem::obs::Tracer tracer;
    const int segments = !per_layer ? 1 : cfg.env.quick ? 2 : 4;
    for (int s = 0; s < segments; ++s) {
      const bool on = s % 2 == 1;
      if (on) hem::obs::set_tracer(&tracer);
      append(on ? traced : plain, closed_loop(*w, cfg.seconds / segments));
      if (on) {
        hem::obs::set_tracer(nullptr);
        hem::obs::set_counting(false);
      }
    }

    std::vector<Reference> refs;
    std::map<std::uint64_t, std::uint64_t> want;
    for (const Input& in : w->inputs()) {
      refs.push_back(analyse_reference(in.name, in.text, 1));
      if (!refs.back().ok) {
        r.correct = false;
        r.notes.push_back(in.name + ": in-process reference failed");
      }
      want.emplace(text_fingerprint(in.text), refs.back().digest);
    }
    verify(plain, *w, want, r);
    verify(traced, *w, want, r);
    r.counters = deterministic_counts(refs);

    std::vector<std::string> findings = check_paper_table3(dir + "/oracle");
    std::vector<Path> paths{Path::kInProcess, Path::kInProcessJobs4, Path::kWorker, Path::kBatch};
    // Wide results are too long for the daemon's response line; see README.
    if (cfg.workload == "fleet_batch" || cfg.workload == "daemon_edit")
      paths.push_back(Path::kDaemon);
    const std::vector<Input> first(w->inputs().begin(),
                                   w->inputs().begin() + std::min<std::size_t>(2, w->inputs().size()));
    for (std::string& f : check_paths_agree(first, paths, dir + "/paths"))
      findings.push_back(std::move(f));
    if (cfg.env.seed == 1) {
      bool checked = false;
      for (std::string& f : check_expected(cfg.expected_file, cfg.env.quick ? "quick" : "full",
                                           cfg.workload, r.counters, checked))
        findings.push_back(std::move(f));
      if (!checked) r.notes.push_back("no expected seed-1 values for this workload");
    }
    if (!findings.empty()) r.correct = false;
    for (std::string& f : findings) r.notes.push_back(std::move(f));

    for (const Loop* loop : {&plain, &traced}) {
      for (const OpRecord& rec : loop->records) {
        ++r.attempted;
        if (!rec.ok) ++r.failed;
      }
    }
    if (!per_layer) {
      add_end_to_end(setup_s, plain, r);
    } else {
      r.metrics = probe_layers(*w, cfg.env, refs, dir + "/probe");
      const double base = quantile(latencies(plain), 0.5);
      r.metrics.push_back({"obs.trace_overhead", "ratio",
                           base > 0 ? quantile(latencies(traced), 0.5) / base - 1.0 : 0.0,
                           static_cast<long>(traced.records.size())});
      const std::vector<hem::obs::TraceEvent> events = tracer.snapshot();
      for (const SpanTotal& s : self_times(events)) r.spans.push_back(format_span(s));
      std::ofstream out(cfg.trace_out);
      hem::obs::write_chrome_trace(out, tracer, hem::obs::registry());
      if (!out.flush()) r.notes.push_back("cannot write trace '" + cfg.trace_out + "'");
    }
  } catch (const std::exception& e) {
    r.correct = false;
    r.notes.push_back(std::string("aborted: ") + e.what());
  }
  if (r.attempted == 0) r.correct = false;
  return r;
}

std::string encode(const WorkloadResult& r) {
  std::ostringstream os;
  os << "workload " << r.workload << "\ncorrect " << (r.correct ? 1 : 0) << "\nattempted "
     << r.attempted << "\nfailed " << r.failed << "\n";
  os.precision(17);
  for (const Metric& m : r.metrics)
    os << "metric " << m.name << " " << m.unit << " " << m.value << " " << m.samples << "\n";
  for (const Metric& m : r.extra)
    os << "extra " << m.name << " " << m.unit << " " << m.value << " " << m.samples << "\n";
  for (const auto& [k, v] : r.counters) os << "counter " << k << " " << v << "\n";
  const auto one_line = [](std::string s) {
    for (char& c : s)
      if (c == '\n' || c == '\r') c = ' ';
    return s;
  };
  for (const std::string& n : r.notes) os << "note " << one_line(n) << "\n";
  for (const std::string& s : r.spans) os << "span " << one_line(s) << "\n";
  return os.str();
}

bool decode(const std::string& text, WorkloadResult& r) {
  std::istringstream in(text);
  bool saw_correct = false;
  for (std::string line; std::getline(in, line);) {
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
    std::istringstream ls(rest);
    if (key == "workload") {
      r.workload = rest;
    } else if (key == "correct") {
      r.correct = rest == "1";
      saw_correct = true;
    } else if (key == "attempted") {
      ls >> r.attempted;
    } else if (key == "failed") {
      ls >> r.failed;
    } else if (key == "metric" || key == "extra") {
      Metric m;
      std::string value;
      ls >> m.name >> m.unit >> value >> m.samples;
      m.value = std::strtod(value.c_str(), nullptr);  // also reads "inf"
      (key == "metric" ? r.metrics : r.extra).push_back(m);
    } else if (key == "counter") {
      std::string k;
      std::uint64_t v = 0;
      ls >> k >> v;
      r.counters[k] = v;
    } else if (key == "note") {
      r.notes.push_back(rest);
    } else if (key == "span") {
      r.spans.push_back(rest);
    }
  }
  return saw_correct;
}

}  // namespace bench
