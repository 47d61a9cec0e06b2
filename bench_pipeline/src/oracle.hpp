#pragma once

// The execution paths a config can take (in-process, forked worker, batch,
// daemon) and the correctness oracle built on them: in-process reference
// results, the same configs through every path, the paper's Table 3, and
// the checked-in seed-1 digests and work counters.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "exec/batch_runner.hpp"
#include "harness.hpp"
#include "model/analysis_report.hpp"
#include "model/textual_config.hpp"

namespace bench {

/// Parse config text; throws what parse_system_config throws.
[[nodiscard]] hem::cpa::ParsedSystem parse_config(const std::string& text);

/// Write each input to <dir>/<name>.hemcpa; returns the paths in order.
[[nodiscard]] std::vector<std::string> write_configs(const std::vector<Input>& inputs,
                                                     const std::string& dir);

/// The settings of every batch the benchmark runs: forked workers, a
/// journal at `journal_path`, two jobs in flight, engine jobs 1.
[[nodiscard]] hem::exec::BatchOptions batch_options(const std::string& journal_path);

/// The `hemcpad serve` defaults (forked workers, pool width 2) plus a
/// journal; socket and journal live in `dir`.
[[nodiscard]] hem::daemon::ServerOptions daemon_options(const std::string& dir);

/// What one submit + wait_result brought back.
struct DaemonReply {
  bool accepted = false;  ///< submit answered ok:true
  bool done = false;      ///< the job ended `done`
  bool cached = false;    ///< served from the journal
  long duration_ms = 0;   ///< the job's own run time
  long warm_seeded = 0;
  double submit_ms = 0;   ///< submit round trip
  std::vector<std::string> rows;
};

/// Submit `text` and wait for its result; throws what the client throws.
[[nodiscard]] DaemonReply daemon_call(hem::daemon::Client& client, const std::string& text);

/// One config analysed in-process on the CLI's default path.
struct Reference {
  bool ok = false;
  std::vector<std::string> rows;
  std::uint64_t digest = 0;    ///< rows_digest(rows)
  int iterations = 0;          ///< global engine iterations
  hem::cpa::EngineStats stats;
  std::size_t frame_bytes = 0; ///< size of the worker pipe frame for this outcome
};

/// Parse `text` and run one attempt in-process with `jobs` engine threads.
[[nodiscard]] Reference analyse_reference(const std::string& label, const std::string& text,
                                          int jobs);

/// The ways a config can reach the engine.
enum class Path { kInProcess, kInProcessJobs4, kWorker, kBatch, kDaemon };

[[nodiscard]] const char* to_string(Path p);

/// Result rows of each input through one path; a config that did not end
/// `done` gets no rows.  `dir` holds the path's files (batch configs and
/// journal, daemon socket and journal).
struct PathRun {
  std::vector<bool> ok;
  std::vector<std::vector<std::string>> rows;
};
[[nodiscard]] PathRun run_path(Path path, const std::vector<Input>& inputs,
                               const std::string& dir);

/// Deterministic counts over a workload's inputs plus the digest of all
/// their rows, in input order.  These are what the expected file pins.
[[nodiscard]] std::map<std::string, std::uint64_t> deterministic_counts(
    const std::vector<Reference>& refs);

/// Check the paper system's T1..T3 WCRTs (HEM 24/56/96, flat 44/108/188)
/// through every path; returns one line per failure.
[[nodiscard]] std::vector<std::string> check_paper_table3(const std::string& dir);

/// Require identical rows for `inputs` across `paths` (the first is the
/// reference); returns one line per mismatch.
[[nodiscard]] std::vector<std::string> check_paths_agree(const std::vector<Input>& inputs,
                                                         const std::vector<Path>& paths,
                                                         const std::string& dir);

/// Compare `counts` against the expected file's entries for
/// (population, workload); returns one line per difference.  `checked`
/// is set when the file had entries to compare.
[[nodiscard]] std::vector<std::string> check_expected(
    const std::string& expected_file, const std::string& population, const std::string& workload,
    const std::map<std::string, std::uint64_t>& counts, bool& checked);

}  // namespace bench
