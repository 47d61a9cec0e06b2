#include "exec/supervisor.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "exec/journal.hpp"

namespace hem::exec {

namespace {
constexpr const char* kStateNames[] = {"queued",    "running",   "done",    "failed",
                                       "cancelled", "abandoned", "crashed", "poisoned"};
}  // namespace

const char* to_string(JobState s) noexcept { return kStateNames[static_cast<int>(s)]; }

std::optional<JobState> parse_job_state(std::string_view name) noexcept {
  for (int i = 0; i < static_cast<int>(std::size(kStateNames)); ++i)
    if (name == kStateNames[i]) return static_cast<JobState>(i);
  return std::nullopt;
}

int CrashLedger::strikes(std::uint64_t key) const {
  const auto it = strikes_.find(key);
  return it == strikes_.end() ? 0 : it->second;
}

void CrashLedger::seed(const Journal& journal) {
  for (const JournalEntry& e : journal.entries()) {
    const std::optional<JobState> s = parse_job_state(e.status);
    const int held = s == JobState::kPoisoned  ? kPoisonThreshold
                     : s == JobState::kCrashed ? 1
                                               : 0;
    if (held > 0) strikes_[e.fingerprint] = std::max(strikes_[e.fingerprint], held);
  }
}

std::string CrashLedger::poison_message(std::uint64_t key, const std::string& last) const {
  return "poisoned: worker crashed " + std::to_string(strikes(key)) + " times (last: " + last +
         ")";
}

AttemptRunner::AttemptRunner(bool isolate, const WorkerLimits& limits)
    : session_(isolate && WorkerProcess::supported() ? std::make_shared<WorkerProcess>()
                                                     : nullptr),
      limits_(limits) {}

WorkerReport AttemptRunner::run(const std::function<AttemptOutcome(const CancelToken*)>& work,
                                const CancelToken& token) const {
  if (session_ != nullptr)
    return session_->run([&work] { return work(nullptr); }, limits_, &token);
  WorkerReport report;
  report.kind = WorkerExit::kResult;
  report.outcome = work(&token);
  return report;
}

std::function<void()> AttemptRunner::kill_hook() const {
  if (session_ == nullptr) return nullptr;
  return [session = session_] { session->kill(); };
}

Verdict classify(WorkerReport report) {
  Verdict v{JobState::kFailed, std::move(report.outcome)};
  switch (report.kind) {
    case WorkerExit::kCrashed:
    case WorkerExit::kResourceExhausted:
      v.state = JobState::kCrashed;
      v.outcome.message = std::move(report.detail);
      break;
    case WorkerExit::kSpawnFailed:
      // fork()/pipe() failed: nothing ran, so another attempt may succeed.
      v.outcome.transient = true;
      v.outcome.message = std::move(report.detail);
      break;
    case WorkerExit::kResult:
    case WorkerExit::kKilled:
      v.state = v.outcome.cancelled ? JobState::kCancelled
                : v.outcome.ok      ? JobState::kDone
                                    : JobState::kFailed;
      break;
  }
  return v;
}

}  // namespace hem::exec
