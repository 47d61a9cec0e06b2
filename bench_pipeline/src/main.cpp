// bench_pipeline: end-to-end benchmark of the whole analysis request path,
// with per-layer tracing.  See README.md for the workloads and metrics.
//
// usage: bench_pipeline [--workload NAME]... [--seed S] [--duration SEC]
//                       [--quick] [--trace-out FILE] [--out FILE]
//                       [--workdir DIR]
//
// Every workload runs in its own forked child, so peak RSS, warm model
// caches and the obs registry stay separate per workload.  The last line
// of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Exit status: 0 when every output verified and no
// op failed, 1 otherwise, 3 on a usage error.

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner.hpp"

namespace {

using bench::Metric;
using bench::WorkloadResult;

std::string json_number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();  // a failed op's latency
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Run one workload in a forked child; the parent adds the child's peak
/// RSS (wait4 rusage, reaped grandchildren included) to the metrics.
WorkloadResult run_in_child(const bench::RunConfig& cfg, double timeout_s) {
  WorkloadResult r;
  r.workload = cfg.workload;
  int fds[2];
  if (::pipe(fds) != 0) {
    r.correct = false;
    r.notes.push_back("pipe() failed");
    return r;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    r.correct = false;
    r.notes.push_back("fork() failed");
    return r;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const std::string blob = bench::encode(bench::run_workload(cfg));
    std::size_t sent = 0;
    while (sent < blob.size()) {
      const ssize_t n = ::write(fds[1], blob.data() + sent, blob.size() - sent);
      if (n <= 0) ::_exit(2);
      sent += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string blob;
  const auto deadline = bench::Clock::now() + std::chrono::duration_cast<bench::Clock::duration>(
                                                  std::chrono::duration<double>(timeout_s));
  bool timed_out = false;
  for (;;) {
    const double left_ms =
        std::chrono::duration<double, std::milli>(deadline - bench::Clock::now()).count();
    if (left_ms <= 0) {
      timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(std::min(left_ms, 1000.0)) + 1) <= 0) continue;
    char buf[65536];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    blob.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (timed_out || !WIFEXITED(status) || WEXITSTATUS(status) != 0 || !bench::decode(blob, r)) {
    r.correct = false;
    r.notes.push_back(timed_out ? "workload timed out and was killed"
                                : "workload process ended abnormally");
    return r;
  }
  if (cfg.trace_out.empty())
    r.metrics.push_back({"peak_rss_mb", "MiB", static_cast<double>(ru.ru_maxrss) / 1024.0, 1});
  return r;
}

void print_result(const WorkloadResult& r, const bench::RunConfig& cfg) {
  std::printf("== %s (seed %llu, %.1f s%s) ==\n", r.workload.c_str(),
              static_cast<unsigned long long>(cfg.env.seed), cfg.seconds,
              cfg.trace_out.empty() ? "" : ", traced");
  for (const auto* list : {&r.metrics, &r.extra})
    for (const Metric& m : *list)
      std::printf("  %-30s %14.6g %-6s (%ld samples)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
  for (const auto& [k, v] : r.counters)
    std::printf("  counter %-28s %llu\n", k.c_str(), static_cast<unsigned long long>(v));
  if (!r.spans.empty()) std::printf("  self time by span (traced segments):\n");
  for (const std::string& s : r.spans) std::printf("    %s\n", s.c_str());
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
  std::printf("  correct: %s  attempted: %ld  failed: %ld\n", r.correct ? "yes" : "NO",
              r.attempted, r.failed);
}

void write_out(const std::string& path, const std::vector<WorkloadResult>& results,
               const bench::RunConfig& cfg) {
  std::ofstream os(path);
  os << "{\n  \"seed\": " << cfg.env.seed << ",\n  \"duration_s\": " << json_number(cfg.seconds)
     << ",\n  \"quick\": " << (cfg.env.quick ? "true" : "false")
     << ",\n  \"traced\": " << (cfg.trace_out.empty() ? "false" : "true")
     << ",\n  \"nproc\": " << cfg.env.nproc
     << ",\n  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    os << (i ? "," : "") << "\n    " << json_string(r.workload) << ": {\"correct\": "
       << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ",\n      \"metrics\": {";
    std::size_t k = 0;
    for (const auto* list : {&r.metrics, &r.extra})
      for (const Metric& m : *list)
        os << (k++ ? ", " : "") << "\n        " << json_string(m.name)
           << ": {\"value\": " << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
           << ", \"samples\": " << m.samples << "}";
    os << "},\n      \"counters\": {";
    k = 0;
    for (const auto& [name, v] : r.counters)
      os << (k++ ? ", " : "") << json_string(name) << ": " << v;
    os << "},\n      \"notes\": [";
    for (std::size_t n = 0; n < r.notes.size(); ++n)
      os << (n ? ", " : "") << json_string(r.notes[n]);
    os << "]}";
  }
  os << "\n  }\n}\n";
  if (!os.flush()) std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_pipeline [--workload NAME]... [--seed S] [--duration SEC] [--quick]\n"
               "                      [--trace-out FILE] [--out FILE] [--workdir DIR]\n"
               "workloads: wide_flat wide_hier fleet_batch daemon_edit (default: all)\n");
  return 3;
}

/// FILE.json -> FILE.<workload>.json, so each workload of a traced run
/// over several workloads writes its own trace.
std::string per_workload_path(const std::string& file, const std::string& workload) {
  if (file.empty()) return file;
  const std::size_t dot = file.rfind('.');
  const bool has_ext = dot != std::string::npos && file.find('/', dot) == std::string::npos;
  return has_ext ? file.substr(0, dot) + "." + workload + file.substr(dot)
                 : file + "." + workload;
}

bool parse_seed(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 19 || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  out = std::stoull(text);
  return true;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig cfg;
  cfg.env.nproc = std::max(1U, std::thread::hardware_concurrency());
  cfg.workdir = ".bench_work";
  cfg.expected_file = BENCH_PIPELINE_EXPECTED;
  std::vector<std::string> workloads;
  std::string out_path;
  std::string trace_out;
  bool duration_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0;
    if (flag == "--workload" && has_value) {
      workloads.push_back(argv[++i]);
    } else if (flag == "--seed" && has_value && parse_seed(argv[i + 1], cfg.env.seed)) {
      ++i;
    } else if (flag == "--duration" && has_value && parse_number(argv[i + 1], v) && v > 0) {
      cfg.seconds = v;
      duration_set = true;
      ++i;
    } else if (flag == "--quick") {
      cfg.env.quick = true;
    } else if (flag == "--trace-out" && has_value && argv[i + 1][0] != '\0') {
      trace_out = argv[++i];
    } else if (flag == "--out" && has_value) {
      out_path = argv[++i];
    } else if (flag == "--workdir" && has_value) {
      cfg.workdir = argv[++i];
    } else {
      return usage();
    }
  }
  if (cfg.env.quick && !duration_set) cfg.seconds = 2.0;
  if (workloads.empty()) workloads = bench::workload_names();
  for (const std::string& w : workloads) {
    bool known = false;
    for (const std::string& n : bench::workload_names()) known = known || n == w;
    if (!known) return usage();
  }
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<WorkloadResult> results;
  for (const std::string& w : workloads) {
    cfg.workload = w;
    cfg.trace_out = workloads.size() == 1 ? trace_out : per_workload_path(trace_out, w);
    // Generous: set-up, the run, verification and probes take a few times
    // the measured duration at most.
    results.push_back(run_in_child(cfg, 120.0 + 2.0 * cfg.seconds));
    print_result(results.back(), cfg);
  }
  if (!out_path.empty()) write_out(out_path, results, cfg);

  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::string metrics;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : r.metrics) {
      const std::string name = results.size() == 1 ? m.name : r.workload + "." + m.name;
      metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
                 ": {\"value\": " + json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
                 "}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}
