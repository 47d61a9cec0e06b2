#include "oracle.hpp"

#include <fstream>
#include <sstream>

#include "daemon/protocol.hpp"
#include "exec/analysis_attempt.hpp"
#include "exec/worker_process.hpp"
#include "inputs.hpp"
#include "obs/obs.hpp"

namespace bench {

namespace {

std::vector<std::string> split_csv(const std::string& row) {
  std::vector<std::string> fields;
  std::istringstream in(row);
  for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
  return fields;
}

PathRun run_in_process(const std::vector<Input>& inputs, int jobs) {
  PathRun run;
  for (const Input& in : inputs) {
    Reference ref = analyse_reference(in.name, in.text, jobs);
    run.ok.push_back(ref.ok);
    run.rows.push_back(std::move(ref.rows));
  }
  return run;
}

PathRun run_worker(const std::vector<Input>& inputs) {
  PathRun run;
  for (const Input& in : inputs) {
    bool ok = false;
    std::vector<std::string> rows;
    try {
      const hem::cpa::ParsedSystem parsed = parse_config(in.text);
      hem::exec::WorkerProcess worker;
      hem::exec::WorkerReport rep = worker.run(
          [&] { return hem::exec::run_analysis_attempt(parsed, in.name, {}, nullptr); }, {},
          nullptr);
      ok = rep.kind == hem::exec::WorkerExit::kResult && rep.outcome.ok;
      rows = std::move(rep.outcome.rows);
    } catch (const std::exception&) {
      ok = false;
    }
    run.ok.push_back(ok);
    run.rows.push_back(std::move(rows));
  }
  return run;
}

PathRun run_batch(const std::vector<Input>& inputs, const std::string& dir) {
  PathRun run;
  hem::exec::BatchRunner runner(write_configs(inputs, dir),
                                batch_options(dir + "/batch.csv.journal"));
  const hem::exec::BatchReport report = runner.run();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const bool ok = i < report.jobs.size() && report.jobs[i].state == hem::exec::JobState::kDone;
    run.ok.push_back(ok);
    run.rows.push_back(ok ? report.jobs[i].rows : std::vector<std::string>{});
  }
  return run;
}

PathRun run_daemon(const std::vector<Input>& inputs, const std::string& dir) {
  PathRun run;
  make_dirs(dir);
  const hem::daemon::ServerOptions opts = daemon_options(dir);
  hem::daemon::Server server(opts);
  server.start();
  {
    hem::daemon::Client client(opts.socket_path);
    for (const Input& in : inputs) {
      DaemonReply reply;
      try {
        reply = daemon_call(client, in.text);
      } catch (const std::exception&) {
        reply.done = false;
      }
      run.ok.push_back(reply.done);
      run.rows.push_back(std::move(reply.rows));
    }
  }
  server.request_drain();
  (void)server.wait();
  return run;
}

}  // namespace

hem::cpa::ParsedSystem parse_config(const std::string& text) {
  std::istringstream in(text);
  return hem::cpa::parse_system_config(in);
}

std::vector<std::string> write_configs(const std::vector<Input>& inputs, const std::string& dir) {
  make_dirs(dir);
  std::vector<std::string> paths;
  for (const Input& in : inputs) {
    paths.push_back(dir + "/" + in.name + ".hemcpa");
    std::ofstream f(paths.back(), std::ios::binary);
    f << in.text;
    if (!f.flush()) throw std::runtime_error("cannot write '" + paths.back() + "'");
  }
  return paths;
}

hem::exec::BatchOptions batch_options(const std::string& journal_path) {
  hem::exec::BatchOptions opts;
  opts.parallel_jobs = 2;
  opts.engine_jobs = 1;
  opts.isolate = true;
  opts.journal_path = journal_path;
  return opts;
}

hem::daemon::ServerOptions daemon_options(const std::string& dir) {
  hem::daemon::ServerOptions opts;
  opts.socket_path = dir + "/d.sock";
  opts.journal_path = dir + "/d.journal";
  return opts;
}

DaemonReply daemon_call(hem::daemon::Client& client, const std::string& text) {
  using hem::daemon::json_find;
  DaemonReply reply;
  const auto t0 = Clock::now();
  const std::string accepted = [&] {
    hem::obs::Span span("bench", "Client::submit");
    return client.submit(text);
  }();
  reply.submit_ms = ms_since(t0);
  reply.accepted = json_find(accepted, "ok") == "true";
  if (!reply.accepted) return reply;
  hem::obs::Span span("bench", "Client::wait_result");
  const std::string result = client.wait_result(std::stoull(json_find(accepted, "id")));
  reply.done = json_find(result, "state") == "done";
  if (!reply.done) return reply;
  reply.cached = json_find(result, "cached") == "true";
  reply.duration_ms = std::stol(json_find(result, "duration_ms"));
  reply.warm_seeded = std::stol(json_find(result, "warm_seeded"));
  reply.rows = hem::daemon::json_find_strings(result, "rows");
  return reply;
}

Reference analyse_reference(const std::string& label, const std::string& text, int jobs) {
  Reference ref;
  try {
    const hem::cpa::ParsedSystem parsed = parse_config(text);
    hem::exec::AttemptOptions opts;
    opts.engine_jobs = jobs;
    opts.keep_report = true;
    const hem::exec::AttemptOutcome out =
        hem::exec::run_analysis_attempt(parsed, label, opts, nullptr);
    ref.ok = out.ok;
    ref.rows = out.rows;
    ref.digest = rows_digest(out.rows);
    if (out.report != nullptr) {
      ref.iterations = out.report->iterations;
      ref.stats = out.report->stats;
    }
    ref.frame_bytes = hem::exec::encode_outcome(out).size();
  } catch (const std::exception&) {
    ref.ok = false;
  }
  return ref;
}

const char* to_string(Path p) {
  switch (p) {
    case Path::kInProcess: return "in_process";
    case Path::kInProcessJobs4: return "in_process_jobs4";
    case Path::kWorker: return "worker";
    case Path::kBatch: return "batch";
    case Path::kDaemon: return "daemon";
  }
  return "?";
}

PathRun run_path(Path path, const std::vector<Input>& inputs, const std::string& dir) {
  switch (path) {
    case Path::kInProcess: return run_in_process(inputs, 1);
    case Path::kInProcessJobs4: return run_in_process(inputs, 4);
    case Path::kWorker: return run_worker(inputs);
    case Path::kBatch: return run_batch(inputs, dir + "/batch");
    case Path::kDaemon: return run_daemon(inputs, dir + "/daemon");
  }
  return {};
}

std::map<std::string, std::uint64_t> deterministic_counts(const std::vector<Reference>& refs) {
  std::map<std::string, std::uint64_t> c;
  std::vector<std::string> all_rows;
  for (const Reference& r : refs) {
    all_rows.insert(all_rows.end(), r.rows.begin(), r.rows.end());
    c["engine.iterations"] += static_cast<std::uint64_t>(r.iterations);
    c["engine.local_analyses_run"] += static_cast<std::uint64_t>(r.stats.local_analyses_run);
    c["engine.local_analyses_skipped"] +=
        static_cast<std::uint64_t>(r.stats.local_analyses_skipped);
    c["engine.models_reused"] += static_cast<std::uint64_t>(r.stats.models_reused);
    c["engine.models_rebuilt"] += static_cast<std::uint64_t>(r.stats.models_rebuilt);
    c["compile.models_compiled"] += static_cast<std::uint64_t>(r.stats.models_compiled);
    c["worker.frame_bytes"] += r.frame_bytes;
  }
  c["rows_fnv1a"] = rows_digest(all_rows);
  return c;
}

std::vector<std::string> check_paper_table3(const std::string& dir) {
  struct Expect {
    const char* task;
    long hem;
    long flat;
  };
  static constexpr Expect kTable3[] = {{"T1", 24, 44}, {"T2", 56, 108}, {"T3", 96, 188}};
  const std::vector<Input> inputs{{"paper_hem", paper_config(true)},
                                  {"paper_flat", paper_config(false)}};
  std::vector<std::string> failures;
  for (const Path path : {Path::kInProcess, Path::kInProcessJobs4, Path::kWorker, Path::kBatch,
                          Path::kDaemon}) {
    PathRun run;
    try {
      run = run_path(path, inputs, dir + "/paper");
    } catch (const std::exception& e) {
      failures.push_back(std::string("paper via ") + to_string(path) + ": " + e.what());
      continue;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool hem_mode = i == 0;
      if (!run.ok[i]) {
        failures.push_back(inputs[i].name + " via " + to_string(path) + ": not done");
        continue;
      }
      for (const Expect& e : kTable3) {
        const long want = hem_mode ? e.hem : e.flat;
        long got = -1;
        for (const std::string& row : run.rows[i]) {
          const std::vector<std::string> f = split_csv(row);
          if (f.size() > 4 && f[1] == e.task) got = std::stol(f[4]);
        }
        if (got != want)
          failures.push_back(inputs[i].name + " via " + to_string(path) + ": " + e.task +
                             " WCRT " + std::to_string(got) + ", Table 3 says " +
                             std::to_string(want));
      }
    }
  }
  return failures;
}

std::vector<std::string> check_paths_agree(const std::vector<Input>& inputs,
                                           const std::vector<Path>& paths,
                                           const std::string& dir) {
  std::vector<std::string> failures;
  std::vector<std::uint64_t> want;
  for (const Path path : paths) {
    PathRun run;
    try {
      run = run_path(path, inputs, dir);
    } catch (const std::exception& e) {
      failures.push_back(std::string("path ") + to_string(path) + ": " + e.what());
      continue;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t d = rows_digest(run.rows[i]);
      if (want.size() <= i) want.push_back(d);
      if (!run.ok[i] || d != want[i])
        failures.push_back(inputs[i].name + ": rows via " + to_string(path) + " differ from " +
                           to_string(paths.front()));
    }
  }
  return failures;
}

std::vector<std::string> check_expected(const std::string& expected_file,
                                        const std::string& population,
                                        const std::string& workload,
                                        const std::map<std::string, std::uint64_t>& counts,
                                        bool& checked) {
  checked = false;
  std::vector<std::string> failures;
  std::ifstream in(expected_file);
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    std::string pop, wl, key, value;
    if (line.empty() || line[0] == '#' || !(ls >> pop >> wl >> key >> value)) continue;
    if (pop != population || wl != workload) continue;
    checked = true;
    const auto it = counts.find(key);
    const std::uint64_t want = std::stoull(value, nullptr, 0);
    if (it == counts.end())
      failures.push_back(workload + ": " + key + " not measured");
    else if (it->second != want)
      failures.push_back(workload + ": " + key + " is " + std::to_string(it->second) +
                         ", expected " + std::to_string(want));
  }
  return failures;
}

}  // namespace bench
