#include "exec/worker_process.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>

#include "obs/obs.hpp"

#if !defined(_WIN32)
#define HEM_WORKER_POSIX 1
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace hem::exec {

namespace {

constexpr char kFrameMagic[8] = {'h', 'e', 'm', 'w', '1', '\n', 0, 0};

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(buf, 8);
}

void put_str(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out.append(s);
}

class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), size_(size) {}
  bool u64(std::uint64_t& v) {
    if (size_ - pos_ < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return true;
  }
  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!u64(n) || size_ - pos_ < n) return false;
    s.assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* to_string(WorkerExit e) noexcept {
  switch (e) {
    case WorkerExit::kResult:
      return "result";
    case WorkerExit::kCrashed:
      return "crashed";
    case WorkerExit::kResourceExhausted:
      return "resource-exhausted";
    case WorkerExit::kKilled:
      return "killed";
    case WorkerExit::kSpawnFailed:
      return "spawn-failed";
  }
  return "unknown";
}

std::string encode_outcome(const AttemptOutcome& out) {
  std::string bytes(kFrameMagic, sizeof kFrameMagic);
  std::uint64_t flags = 0;
  if (out.ok) flags |= 1u << 0;
  if (out.degraded) flags |= 1u << 1;
  if (out.converged) flags |= 1u << 2;
  if (out.cancelled) flags |= 1u << 3;
  if (out.transient) flags |= 1u << 4;
  put_u64(bytes, flags);
  put_u64(bytes, static_cast<std::uint64_t>(out.cancel_reason));
  put_u64(bytes, static_cast<std::uint64_t>(out.duration_ms));
  put_u64(bytes, 0);  // reserved word, always 0: keeps the frame layout stable
  put_str(bytes, out.message);
  put_u64(bytes, out.rows.size());
  for (const std::string& row : out.rows) put_str(bytes, row);
  return bytes;
}

bool decode_outcome(const std::string& bytes, AttemptOutcome& out) {
  if (bytes.size() < sizeof kFrameMagic ||
      std::memcmp(bytes.data(), kFrameMagic, sizeof kFrameMagic) != 0)
    return false;
  Cursor c(bytes.data() + sizeof kFrameMagic, bytes.size() - sizeof kFrameMagic);
  std::uint64_t flags = 0;
  std::uint64_t reason = 0;
  std::uint64_t duration = 0;
  std::uint64_t reserved = 0;
  std::uint64_t n_rows = 0;
  AttemptOutcome dec;
  if (!c.u64(flags) || !c.u64(reason) || !c.u64(duration) || !c.u64(reserved) ||
      !c.str(dec.message) || !c.u64(n_rows))
    return false;
  if (reason > static_cast<std::uint64_t>(CancelReason::kDisconnect)) return false;
  dec.ok = (flags & (1u << 0)) != 0;
  dec.degraded = (flags & (1u << 1)) != 0;
  dec.converged = (flags & (1u << 2)) != 0;
  dec.cancelled = (flags & (1u << 3)) != 0;
  dec.transient = (flags & (1u << 4)) != 0;
  dec.cancel_reason = static_cast<CancelReason>(reason);
  dec.duration_ms = static_cast<long>(duration);
  dec.rows.reserve(static_cast<std::size_t>(n_rows));
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    std::string row;
    if (!c.str(row)) return false;
    dec.rows.push_back(std::move(row));
  }
  if (!c.done()) return false;
  out = std::move(dec);
  return true;
}

WorkerLimits limits_from_budget(long budget_ms, long memory_mb, long stack_mb) noexcept {
  WorkerLimits limits;
  if (budget_ms > 0) {
    // 4x the wall budget in CPU seconds (a parallel attempt burns several
    // cores), minimum 2s so sub-second budgets don't SIGXCPU healthy jobs.
    // The watchdog's token fires long before this; the rlimit only matters
    // for a worker stuck outside every cancellation point.
    const long seconds = (budget_ms + 999) / 1000;
    limits.cpu_seconds = seconds * 4 + 2;
  }
  if (memory_mb > 0) limits.memory_bytes = static_cast<long long>(memory_mb) << 20;
  if (stack_mb > 0) limits.stack_bytes = static_cast<long long>(stack_mb) << 20;
  return limits;
}

#if defined(HEM_WORKER_POSIX)

namespace {

std::mutex g_live_mx;
std::set<pid_t> g_live_pids;

void register_live(pid_t pid) {
  const std::lock_guard<std::mutex> lock(g_live_mx);
  g_live_pids.insert(pid);
}

void unregister_live(pid_t pid) {
  const std::lock_guard<std::mutex> lock(g_live_mx);
  g_live_pids.erase(pid);
}

/// Best-effort: a cap the host refuses (e.g. over a hard limit) must not
/// turn into a spawn failure — the watchdog still bounds the job.
void cap_limit(int resource, rlim_t soft, rlim_t hard) {
  struct rlimit rl;
  rl.rlim_cur = soft;
  rl.rlim_max = hard;
  (void)::setrlimit(resource, &rl);
}

/// RLIMIT_AS caps total *virtual* address space.  AddressSanitizer reserves
/// terabytes of (NORESERVE) shadow mappings at startup, so under ASan any
/// realistic cap is already exceeded and every later allocation would fail —
/// in clean workers, not just misbehaving ones.  Skip the cap there; the
/// CPU backstop and the watchdog still bound the job.
constexpr bool address_space_cappable() {
#if defined(__SANITIZE_ADDRESS__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

void apply_limits(const WorkerLimits& limits) {
  if (limits.memory_bytes > 0 && address_space_cappable()) {
    const auto bytes = static_cast<rlim_t>(limits.memory_bytes);
    cap_limit(RLIMIT_AS, bytes, bytes);
  }
  if (limits.cpu_seconds > 0) {
    // Soft limit delivers SIGXCPU; the hard limit one second later is the
    // SIGKILL backstop should the child ignore it.
    const auto secs = static_cast<rlim_t>(limits.cpu_seconds);
    cap_limit(RLIMIT_CPU, secs, secs + 1);
  }
  if (limits.stack_bytes > 0) {
    const auto bytes = static_cast<rlim_t>(limits.stack_bytes);
    cap_limit(RLIMIT_STACK, bytes, bytes);
  }
}

[[noreturn]] void child_main(int fd, const std::function<AttemptOutcome()>& work,
                             const WorkerLimits& limits) {
  apply_limits(limits);
  // The obs tracer/counter sinks belong to the parent; a child emitting
  // into them would interleave with the parent's own streams.
  obs::set_tracer(nullptr);
  obs::set_counting(false);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished parent becomes an EPIPE write error
  std::string frame;
  try {
    frame = encode_outcome(work());
  } catch (...) {
    ::_exit(4);  // the attempt layer is firewalled; anything escaping is a bug
  }
  std::string wire;
  put_u64(wire, frame.size());
  wire += frame;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(2);
    }
    sent += static_cast<std::size_t>(n);
  }
  ::_exit(0);
}

}  // namespace

bool WorkerProcess::supported() noexcept { return true; }

std::vector<int> WorkerProcess::live_pids() {
  const std::lock_guard<std::mutex> lock(g_live_mx);
  return {g_live_pids.begin(), g_live_pids.end()};
}

void WorkerProcess::kill() noexcept {
  kill_requested_.store(true, std::memory_order_release);
  const long pid = pid_.load(std::memory_order_acquire);
  if (pid > 0) (void)::kill(static_cast<pid_t>(pid), SIGKILL);
}

WorkerReport WorkerProcess::run(const std::function<AttemptOutcome()>& work,
                                const WorkerLimits& limits, const CancelToken* cancel) {
  WorkerReport report;
  const auto t0 = std::chrono::steady_clock::now();
  const auto parent_ms = [&] {
    return static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
  };

  int fds[2];
  if (::pipe(fds) != 0) {
    report.detail = std::string("pipe: ") + std::strerror(errno);
    return report;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    report.detail = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return report;
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fds[1], work, limits);
  }

  ::close(fds[1]);
  pid_.store(pid, std::memory_order_release);
  register_live(pid);
  bool killed_by_us = false;
  if (kill_requested_.load(std::memory_order_acquire)) {
    (void)::kill(pid, SIGKILL);  // kill() raced the fork; honour it now
    killed_by_us = true;
  }

  // Drain the pipe, watching the cancel token.  EOF (the child closed its
  // end, by exiting or dying) ends the loop.
  std::string wire;
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fds[0];
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 20);
    if (!killed_by_us &&
        ((cancel != nullptr && cancel->cancelled()) ||
         kill_requested_.load(std::memory_order_acquire))) {
      (void)::kill(pid, SIGKILL);
      killed_by_us = true;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    char buf[4096];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      wire.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or read error: the child is gone
  }
  ::close(fds[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  unregister_live(pid);
  pid_.store(0, std::memory_order_release);

  report.outcome.duration_ms = parent_ms();
  if (killed_by_us) {
    report.kind = WorkerExit::kKilled;
    report.outcome.cancelled = true;
    report.outcome.cancel_reason =
        cancel != nullptr && cancel->reason() != CancelReason::kNone ? cancel->reason()
                                                                     : CancelReason::kUser;
    report.detail = "worker killed on cancellation (" +
                    std::string(exec::to_string(report.outcome.cancel_reason)) + ")";
    report.outcome.message = report.detail;
    if (WIFSIGNALED(status)) report.term_signal = WTERMSIG(status);
    return report;
  }
  if (WIFSIGNALED(status)) {
    report.term_signal = WTERMSIG(status);
    const char* name = ::strsignal(report.term_signal);
    if (report.term_signal == SIGXCPU) {
      report.kind = WorkerExit::kResourceExhausted;
      report.detail = "RLIMIT_CPU exceeded (SIGXCPU)";
    } else if (report.term_signal == SIGKILL) {
      // Not our kill: the kernel OOM killer or an external actor.  Either
      // way the job exhausted something this process did not grant it.
      report.kind = WorkerExit::kResourceExhausted;
      report.detail = "worker killed by SIGKILL (kernel OOM killer or external)";
    } else {
      report.kind = WorkerExit::kCrashed;
      report.detail = "worker crashed: signal " + std::to_string(report.term_signal) +
                      (name != nullptr ? std::string(" (") + name + ")" : std::string());
    }
    report.outcome.message = report.detail;
    return report;
  }
  report.exit_status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (report.exit_status == 0) {
    // Frame: u64 length prefix + payload.  Anything short or mismatched is
    // a torn frame — classify as a crash, never trust partial rows.
    Cursor c(wire.data(), wire.size());
    std::uint64_t frame_len = 0;
    AttemptOutcome decoded;
    if (c.u64(frame_len) && wire.size() == 8 + frame_len &&
        decode_outcome(wire.substr(8), decoded)) {
      report.kind = WorkerExit::kResult;
      report.outcome = std::move(decoded);
      return report;
    }
    report.kind = WorkerExit::kCrashed;
    report.detail = "worker exited 0 with a torn result frame (" +
                    std::to_string(wire.size()) + " bytes)";
  } else {
    report.kind = WorkerExit::kCrashed;
    report.detail = "worker exited with status " + std::to_string(report.exit_status);
  }
  report.outcome.message = report.detail;
  return report;
}

#else  // !HEM_WORKER_POSIX

bool WorkerProcess::supported() noexcept { return false; }

std::vector<int> WorkerProcess::live_pids() { return {}; }

void WorkerProcess::kill() noexcept { kill_requested_.store(true, std::memory_order_release); }

WorkerReport WorkerProcess::run(const std::function<AttemptOutcome()>& work,
                                const WorkerLimits& /*limits*/, const CancelToken* /*cancel*/) {
  // No process isolation on this platform: run inline.  Crashes crash the
  // host process exactly as they would without the sandbox.
  WorkerReport report;
  report.kind = WorkerExit::kResult;
  report.outcome = work();
  return report;
}

#endif  // HEM_WORKER_POSIX

}  // namespace hem::exec
