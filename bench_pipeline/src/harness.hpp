#pragma once

// Shared vocabulary of the pipeline benchmark: measured metrics, the record
// one closed-loop operation leaves behind, the workload interface, and the
// small statistics / digest helpers every module uses.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One reported number: `samples` is how many measurements it summarises.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  long samples = 0;
};

/// What one closed-loop operation produced.  `outputs` pairs the content
/// fingerprint of every config the op analysed with the FNV-1a digest of
/// its result rows (config column removed); the verifier re-derives each
/// digest in-process and fails the op on any difference.
struct OpRecord {
  double ms = 0.0;
  bool ok = false;   ///< every job reached `done` and nothing threw
  int configs = 0;   ///< configs analysed by the op
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outputs;
};

/// A distinct generated config.  `name` is its label (the CSV config column).
struct Input {
  std::string name;
  std::string text;
};

/// Run-wide settings every workload reads.
struct Env {
  std::uint64_t seed = 1;
  bool quick = false;
  int nproc = 1;
};

/// A workload: inputs built from the seed, one op type, and the services
/// the op talks to.  One object is one set-up; destroying it stops its
/// services.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generate the inputs, write files, start services, and run one
  /// untimed warm-up op per distinct input.  Everything here is set-up time.
  virtual void setup(const std::string& dir) = 0;

  /// One closed-loop operation for `client` (0-based).  Must not throw.
  [[nodiscard]] virtual OpRecord op(int client, long seq) = 0;

  /// Closed-loop clients driving op() concurrently.
  [[nodiscard]] virtual int clients() const { return 1; }

  /// Engine threads the op's analyses use.
  [[nodiscard]] virtual int engine_jobs() const { return 1; }

  /// The seeded inputs (daemon_edit: the base configs before any edit).
  /// Digests, counters and layer probes run over these.
  [[nodiscard]] const std::vector<Input>& inputs() const { return inputs_; }

  /// Text of any config an op analysed, by content fingerprint.
  [[nodiscard]] std::string text_of(std::uint64_t fp) const;

 protected:
  /// Record a config text under its fingerprint (thread-safe).
  std::uint64_t remember(const std::string& text);

  std::vector<Input> inputs_;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::string> texts_;
};

/// Build a workload by name; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, const Env& env);

/// The workload names, in reporting order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// FNV-1a digest of result rows with the leading config column dropped, so
/// rows of one config compare equal whatever label or path carried them.
[[nodiscard]] std::uint64_t rows_digest(const std::vector<std::string>& rows);

/// Content fingerprint of a config text (the journal's and daemon's key).
[[nodiscard]] std::uint64_t text_fingerprint(const std::string& text);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// User + system CPU of this process plus its reaped children, in ms.
[[nodiscard]] double cpu_ms_with_children();

/// Create `dir` and its parents; throws on failure.
void make_dirs(const std::string& dir);

/// Remove `path` recursively if it exists.
void remove_tree(const std::string& path);

}  // namespace bench
