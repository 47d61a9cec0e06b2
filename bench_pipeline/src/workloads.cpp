// The four workloads.  Each drives the real request path through public
// APIs only: parse_system_config + run_analysis_attempt in-process,
// BatchRunner over files with forked workers and a journal, and a
// daemon::Client against an in-process daemon::Server.

#include <algorithm>
#include <random>
#include <stdexcept>

#include "daemon/protocol.hpp"
#include "exec/analysis_attempt.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"

namespace bench {

namespace {

struct Sizes {
  int wide_flat;
  int wide_hier;
  int fleet;
  int daemon_bases;
};

Sizes sizes(const Env& env) {
  return env.quick ? Sizes{4, 4, 16, 8} : Sizes{32, 24, 64, 16};
}

/// wide_flat / wide_hier: parse -> run_analysis_attempt -> CSV rows, in
/// process, cycling through the inputs.
class WideWorkload final : public Workload {
 public:
  WideWorkload(const Env& env, bool hierarchical)
      : env_(env),
        hierarchical_(hierarchical),
        jobs_(hierarchical ? 1 : std::min(4, env.nproc)) {}

  void setup(const std::string& /*dir*/) override {
    const Sizes s = sizes(env_);
    inputs_ = wide_inputs(env_.seed, hierarchical_ ? s.wide_hier : s.wide_flat, hierarchical_);
    for (const Input& in : inputs_) fps_.push_back(remember(in.text));
    for (std::size_t i = 0; i < inputs_.size(); ++i) (void)analyse(i, -1);
  }

  OpRecord op(int /*client*/, long seq) override {
    return analyse(static_cast<std::size_t>(seq) % inputs_.size(), seq);
  }

  int engine_jobs() const override { return jobs_; }

 private:
  OpRecord analyse(std::size_t i, long rid) {
    OpRecord rec;
    rec.configs = 1;
    const auto t0 = Clock::now();
    {
      hem::obs::Span span("bench", "op");
      span.arg("rid", rid);
      try {
        const hem::cpa::ParsedSystem parsed = [&] {
          hem::obs::Span s("bench", "parse_system_config");
          return parse_config(inputs_[i].text);
        }();
        hem::exec::AttemptOptions opts;
        opts.engine_jobs = jobs_;
        hem::obs::Span s("bench", "run_analysis_attempt");
        const hem::exec::AttemptOutcome out =
            hem::exec::run_analysis_attempt(parsed, inputs_[i].name, opts, nullptr);
        rec.ok = out.ok;
        rec.outputs.emplace_back(fps_[i], rows_digest(out.rows));
      } catch (const std::exception&) {
        rec.ok = false;
      }
    }
    rec.ms = ms_since(t0);
    return rec;
  }

  Env env_;
  bool hierarchical_;
  int jobs_;
  std::vector<std::uint64_t> fps_;
};

/// fleet_batch: one BatchRunner::run over config files written at set-up,
/// with forked workers, a journal, and two jobs in flight.
class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const Env& env) : env_(env) {}

  void setup(const std::string& dir) override {
    inputs_ = fleet_inputs(env_.seed, sizes(env_).fleet);
    paths_ = write_configs(inputs_, dir + "/fleet");
    for (const Input& in : inputs_) fps_.push_back(remember(in.text));
    journal_ = dir + "/fleet.csv.journal";
    (void)op(0, -1);
  }

  OpRecord op(int /*client*/, long seq) override {
    OpRecord rec;
    rec.configs = static_cast<int>(paths_.size());
    const auto t0 = Clock::now();
    {
      hem::obs::Span span("bench", "op");
      span.arg("rid", seq);
      try {
        hem::obs::Span s("bench", "BatchRunner::run");
        hem::exec::BatchRunner runner(paths_, batch_options(journal_));
        const hem::exec::BatchReport report = runner.run();
        rec.ok = report.jobs.size() == paths_.size() && !report.interrupted;
        for (std::size_t k = 0; k < report.jobs.size() && k < fps_.size(); ++k) {
          rec.ok = rec.ok && report.jobs[k].state == hem::exec::JobState::kDone;
          rec.outputs.emplace_back(fps_[k], rows_digest(report.jobs[k].rows));
        }
      } catch (const std::exception&) {
        rec.ok = false;
      }
    }
    rec.ms = ms_since(t0);
    return rec;
  }

 private:
  Env env_;
  std::vector<std::string> paths_;
  std::vector<std::uint64_t> fps_;
  std::string journal_;
};

/// daemon_edit: an in-process daemon with the `hemcpad serve` defaults plus
/// a journal, driven by closed-loop clients over one connection each.
class DaemonWorkload final : public Workload {
 public:
  explicit DaemonWorkload(const Env& env) : env_(env), clients_(std::min(2, env.nproc)) {}

  ~DaemonWorkload() override {
    conns_.clear();
    if (server_ != nullptr) {
      server_->request_drain();
      (void)server_->wait();
    }
  }

  DaemonWorkload(const DaemonWorkload&) = delete;
  DaemonWorkload& operator=(const DaemonWorkload&) = delete;

  void setup(const std::string& dir) override {
    inputs_ = daemon_bases(env_.seed, sizes(env_).daemon_bases);
    const hem::daemon::ServerOptions opts = daemon_options(dir);
    server_ = std::make_unique<hem::daemon::Server>(opts);
    server_->start();
    for (int c = 0; c < clients_; ++c) {
      conns_.push_back(std::make_unique<hem::daemon::Client>(opts.socket_path));
      streams_.emplace_back(inputs_, env_.seed, c, clients_);
      think_.emplace_back(env_.seed ^ (0xA5A5A5A5ULL + static_cast<std::uint64_t>(c)));
    }
    // Warm-up: every base runs once, so its result is in the journal and
    // later resubmissions of it are served from there.  All bases are in
    // flight together (within the per-client quota) so set-up time does
    // not hinge on where each submit lands in the scheduler's 25 ms poll.
    std::vector<std::pair<hem::daemon::Client*, std::uint64_t>> pending;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      hem::daemon::Client& conn = *conns_[i % conns_.size()];
      (void)remember(inputs_[i].text);
      const std::string accepted = conn.submit(inputs_[i].text);
      if (hem::daemon::json_find(accepted, "ok") != "true")
        throw std::runtime_error("warm-up submit rejected: " + accepted);
      pending.emplace_back(&conn, std::stoull(hem::daemon::json_find(accepted, "id")));
      if (pending.size() == static_cast<std::size_t>(opts.client_quota) * conns_.size() ||
          i + 1 == inputs_.size()) {
        for (const auto& [c, id] : pending)
          if (hem::daemon::json_find(c->wait_result(id), "state") != "done")
            throw std::runtime_error("warm-up job did not finish done");
        pending.clear();
      }
    }
  }

  OpRecord op(int client, long seq) override {
    const auto c = static_cast<std::size_t>(client);
    think(think_[c]);
    bool resubmit = false;
    std::string text = streams_[c].next(resubmit);
    const std::uint64_t fp = remember(text);
    OpRecord rec;
    rec.configs = 1;
    const auto t0 = Clock::now();
    {
      hem::obs::Span span("bench", "op");
      span.arg("rid", seq);
      try {
        const DaemonReply reply = daemon_call(*conns_[c], text);
        rec.ok = reply.done;
        rec.outputs.emplace_back(fp, rows_digest(reply.rows));
      } catch (const std::exception&) {
        rec.ok = false;
      }
    }
    rec.ms = ms_since(t0);
    if (rec.ok && !resubmit) streams_[c].completed(std::move(text));
    return rec;
  }

  int clients() const override { return clients_; }

 private:
  Env env_;
  int clients_;
  std::unique_ptr<hem::daemon::Server> server_;
  std::vector<std::unique_ptr<hem::daemon::Client>> conns_;
  std::vector<EditStream> streams_;
  std::vector<std::mt19937_64> think_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"wide_flat", "wide_hier", "fleet_batch",
                                               "daemon_edit"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Env& env) {
  if (name == "wide_flat") return std::make_unique<WideWorkload>(env, false);
  if (name == "wide_hier") return std::make_unique<WideWorkload>(env, true);
  if (name == "fleet_batch") return std::make_unique<FleetWorkload>(env);
  if (name == "daemon_edit") return std::make_unique<DaemonWorkload>(env);
  return nullptr;
}

}  // namespace bench
