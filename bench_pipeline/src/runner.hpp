#pragma once

// Runs one workload end to end inside the calling process: set-up,
// closed-loop measurement (untraced, or alternating traced/untraced
// segments plus layer probes), and verification of every output.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace bench {

struct RunConfig {
  Env env;
  std::string workload;
  double seconds = 30.0;
  std::string trace_out;      ///< per-layer run, Chrome trace written here; empty = end-to-end run
  std::string workdir;        ///< scratch files; this workload uses <workdir>/<workload>
  std::string expected_file;  ///< seed-1 digests and counts
};

struct WorkloadResult {
  std::string workload;
  bool correct = true;  ///< every output verified and every oracle passed
  long attempted = 0;   ///< closed-loop ops
  long failed = 0;      ///< ops that ended badly or whose output was wrong
  std::vector<Metric> metrics;  ///< the run's metrics, as BENCHMARK.json lists them
  std::vector<Metric> extra;    ///< reported, but not part of the result line
  std::map<std::string, std::uint64_t> counters;  ///< deterministic counts of the inputs
  std::vector<std::string> notes;                 ///< what failed, one line each
  std::vector<std::string> spans;                 ///< self-time table of the traced run
};

[[nodiscard]] WorkloadResult run_workload(const RunConfig& cfg);

/// Line-based encoding used to hand a result from the workload's child
/// process to the parent.
[[nodiscard]] std::string encode(const WorkloadResult& r);
[[nodiscard]] bool decode(const std::string& text, WorkloadResult& r);

}  // namespace bench
