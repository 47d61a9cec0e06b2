#include "exec/analysis_attempt.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

#include "core/errors.hpp"
#include "io/csv.hpp"
#include "model/cpa_engine.hpp"
#include "model/textual_config.hpp"

namespace hem::exec {

namespace {

using steady = std::chrono::steady_clock;

/// Split a converged report into merged-CSV rows, reusing the single-run
/// writer so batch/daemon rows are byte-identical to `hemcpa --csv` output.
std::vector<std::string> report_rows(const std::string& label, const cpa::AnalysisReport& rep) {
  std::ostringstream ss;
  io::write_report_csv(ss, rep);
  std::istringstream in(ss.str());
  std::vector<std::string> rows;
  std::string line;
  std::getline(in, line);  // drop the per-run header
  const std::string prefix = io::csv_field(label) + ",";
  while (std::getline(in, line)) rows.push_back(prefix + line);
  return rows;
}

[[nodiscard]] bool transient_code(ErrorCode code) noexcept {
  return code == ErrorCode::kTimeBudget || code == ErrorCode::kIterationLimit ||
         code == ErrorCode::kWindowLimit;
}

/// `inject_fault=oom`: allocate-and-touch until the allocator gives up,
/// then die the way a native out-of-memory process does — bypassing the
/// exception firewall (malloc, not new).  Self-caps RLIMIT_AS so a run
/// without a worker memory cap storms a sandboxed 512 MiB, not the host.
[[noreturn]] void oom_fault() {
#if !defined(_WIN32)
  struct rlimit rl {};
  if (::getrlimit(RLIMIT_AS, &rl) == 0) {
    const auto cap = static_cast<rlim_t>(512) << 20;
    if (rl.rlim_cur == RLIM_INFINITY || rl.rlim_cur > cap) {
      rl.rlim_cur = cap;
      if (rl.rlim_max == RLIM_INFINITY || rl.rlim_max > cap) rl.rlim_max = cap;
      (void)::setrlimit(RLIMIT_AS, &rl);
    }
  }
#endif
  constexpr std::size_t kChunk = std::size_t{16} << 20;
  for (int i = 0; i < (1 << 16); ++i) {
    void* p = std::malloc(kChunk);
    if (p == nullptr) break;
    std::memset(p, 0x5A, kChunk);
  }
  std::abort();
}

/// `inject_fault=stackoverflow`: unbounded non-tail recursion with a live
/// frame, so the guard page (or RLIMIT_STACK) delivers SIGSEGV.
int stack_fault(int depth) {  // NOLINT(misc-no-recursion)
  volatile char pad[4096];
  pad[0] = static_cast<char>(depth);
  if (depth < 0) return pad[0];  // unreachable; defeats tail-call folding
  return stack_fault(depth + 1) + pad[0];
}

/// Test-only crash hook (`option inject_fault=<kind>`): reproduces the
/// ways a native analysis can die, so the process sandbox and the chaos
/// harness exercise real worker deaths.  Kinds are validated at parse
/// time; an empty kind is the production no-op.
void trigger_injected_fault(const std::string& kind) {
  if (kind.empty()) return;
  if (kind == "abort") std::abort();
  if (kind == "segv") {
    (void)std::raise(SIGSEGV);
    std::abort();  // SIGSEGV ignored/blocked: still die
  }
  if (kind == "oom") oom_fault();
  if (kind == "stackoverflow") {
    (void)stack_fault(0);
    std::abort();
  }
  if (kind == "spin") {
    // Burn CPU outside every cancellation point: only SIGKILL (watchdog
    // escalation) or RLIMIT_CPU (SIGXCPU) can end this attempt.
    const auto until = steady::now() + std::chrono::minutes(10);
    while (steady::now() < until) {
    }
    std::abort();
  }
}

}  // namespace

AttemptOutcome run_analysis_attempt(const cpa::ParsedSystem& parsed, const std::string& label,
                                    const AttemptOptions& options, const CancelToken* cancel) {
  AttemptOutcome out;
  const auto t0 = steady::now();
  trigger_injected_fault(parsed.inject_fault);
  try {
    cpa::EngineOptions eopts;
    eopts.strict = options.strict || parsed.strict;
    eopts.check_overload = parsed.check_overload;
    eopts.jobs =
        options.engine_jobs != 0 ? options.engine_jobs : (parsed.jobs != 0 ? parsed.jobs : 1);
    eopts.max_iterations = options.max_iterations;
    if (options.wall_budget_ms > 0) eopts.wall_clock_budget_ms = options.wall_budget_ms;
    if (options.fixpoint_max_iterations > 0)
      eopts.fixpoint_limits.max_iterations = options.fixpoint_max_iterations;
    if (options.fixpoint_max_window > 0)
      eopts.fixpoint_limits.max_window = options.fixpoint_max_window;
    eopts.cancel = cancel;

    cpa::CpaEngine engine(parsed.system, eopts);
    cpa::AnalysisReport report = engine.run();
    out.converged = report.converged;
    out.degraded = report.degraded();
    if (report.converged) {
      out.ok = true;
      out.rows = report_rows(label, report);
    } else {
      // Graceful mode returned fallback bounds without a fixpoint — for a
      // batch that is a failure, but one more global iterations may fix.
      out.transient = true;
      out.message =
          "no global fixpoint within " + std::to_string(eopts.max_iterations) + " iterations";
    }
    if (options.keep_report)
      out.report = std::make_shared<cpa::AnalysisReport>(std::move(report));
  } catch (const AnalysisError& e) {
    if (e.code() == ErrorCode::kCancelled) {
      out.cancelled = true;
      out.cancel_reason = cancel != nullptr ? cancel->reason() : CancelReason::kNone;
    } else {
      out.transient = transient_code(e.code());
    }
    out.message = e.what();
  } catch (const std::bad_alloc&) {
    out.message = "out of memory (std::bad_alloc)";
  } catch (const std::exception& e) {
    out.message = e.what();  // ContractViolation, ...
  }
  out.duration_ms = static_cast<long>(
      std::chrono::duration_cast<std::chrono::milliseconds>(steady::now() - t0).count());
  return out;
}

}  // namespace hem::exec
