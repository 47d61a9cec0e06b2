#include "daemon/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "exec/worker_process.hpp"

#if defined(__unix__) || defined(__APPLE__)

namespace hem::daemon {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

const char* kTinyConfig =
    "resource CPU1 spp\n"
    "source s1 periodic period=10\n"
    "task A resource=CPU1 priority=1 cet=2\n"
    "activate A from=s1\n";

/// High-load burst config: analysis time grows with `jitter` (about 300 ms
/// at 2'000'000 on a debug build), and distinct jitters give distinct
/// fingerprints, so slow jobs never hit the journal.
std::string slow_config(long jitter) {
  return "resource R spp\n"
         "source s sem period=1000 jitter=" + std::to_string(jitter) + "\n"
         "task H resource=R priority=2 cet=900\n"
         "activate H from=s\n"
         "option overload_check=off\n";
}

bool wait_until(const std::function<bool()>& pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

/// Options tuned for tests: small pool, quick timeouts, no journal.  The pid
/// keeps socket paths distinct when several test binaries run concurrently
/// (TempDir() is plain /tmp on Linux).
ServerOptions test_options(const std::string& tag) {
  ServerOptions o;
  o.socket_path =
      (fs::path(::testing::TempDir()) / (tag + "." + std::to_string(::getpid()) + ".sock"))
          .string();
  o.pool_width = 1;
  o.grace_ms = 5000;  // slow configs honour cancels within ~1s
  o.io_timeout_ms = 2000;
  // Generous: a TSan build sharing the machine with another test suite can
  // starve a connection thread for tens of seconds.
  o.idle_timeout_ms = 120'000;
  o.default_budget_ms = 30'000;
  return o;
}

class ServerFixture : public ::testing::Test {
 protected:
  void start(ServerOptions opts) {
    fs::remove(opts.socket_path);
    server_ = std::make_unique<Server>(std::move(opts));
    server_->start();
  }
  void TearDown() override {
    if (server_ && !server_->stopped()) server_->request_force_stop();
    if (server_) (void)server_->wait();
  }
  [[nodiscard]] Client connect() const {
    return Client(server_->socket_path(), /*io_timeout_ms=*/120'000);
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerFixture, PingReportsProtocolVersion) {
  start(test_options("ping"));
  Client client = connect();
  const std::string resp = client.ping();
  EXPECT_EQ(json_find(resp, "ok"), "true");
  EXPECT_EQ(json_find(resp, "version"), "hemcpad1");
}

TEST_F(ServerFixture, SubmitRunsToDone) {
  start(test_options("submit"));
  Client client = connect();
  const std::string sub = client.submit(kTinyConfig, {{"label", "tiny"}});
  ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
  EXPECT_EQ(json_find(sub, "state"), "queued");
  EXPECT_EQ(json_find(sub, "cached"), "false");
  EXPECT_FALSE(json_find(sub, "fingerprint").empty());

  const std::uint64_t id = std::stoull(json_find(sub, "id"));
  const std::string res = client.wait_result(id, 20'000);
  ASSERT_EQ(json_find(res, "ok"), "true") << res;
  EXPECT_EQ(json_find(res, "state"), "done");
  EXPECT_EQ(json_find(res, "converged"), "true");
  EXPECT_EQ(json_find(res, "degraded"), "false");
  const auto rows = json_find_strings(res, "rows");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].find("tiny,A,CPU1,"), std::string::npos) << rows[0];
}

TEST_F(ServerFixture, ParseErrorFailsOnlyThatJob) {
  start(test_options("badcfg"));
  Client client = connect();
  const std::string sub = client.submit("task oops nonsense\n");
  ASSERT_EQ(json_find(sub, "ok"), "true") << sub;  // admission accepts, job fails
  const std::uint64_t id = std::stoull(json_find(sub, "id"));
  const std::string res = client.wait_result(id, 20'000);
  EXPECT_EQ(json_find(res, "state"), "failed");
  EXPECT_FALSE(json_find(res, "message").empty());

  // The daemon keeps serving.
  const std::string sub2 = client.submit(kTinyConfig);
  const std::string res2 = client.wait_result(std::stoull(json_find(sub2, "id")), 20'000);
  EXPECT_EQ(json_find(res2, "state"), "done");
}

TEST_F(ServerFixture, JournalServesIdempotentResubmission) {
  ServerOptions opts = test_options("journal");
  opts.journal_path = opts.socket_path + ".journal";
  fs::remove(opts.journal_path);
  start(opts);
  {
    Client client = connect();
    const std::string sub = client.submit(kTinyConfig);
    const std::uint64_t id = std::stoull(json_find(sub, "id"));
    const std::string cold = client.wait_result(id, 20'000);
    ASSERT_EQ(json_find(cold, "state"), "done");

    // Same bytes again: answered from the journal without re-running.
    const std::string resub = client.submit(kTinyConfig);
    EXPECT_EQ(json_find(resub, "state"), "done");
    EXPECT_EQ(json_find(resub, "cached"), "true");
    const std::string stats = client.stats();
    EXPECT_EQ(json_find(stats, "journal_hits"), "1");
    EXPECT_EQ(json_find(stats, "submitted"), "1");  // only the cold run was admitted
    client.drain();
  }
  EXPECT_EQ(server_->wait(), 0);

  // A fresh daemon on the same journal still remembers the result.
  ServerOptions opts2 = test_options("journal2");
  opts2.journal_path = opts.journal_path;
  start(opts2);
  Client client = connect();
  const std::string resub = client.submit(kTinyConfig);
  EXPECT_EQ(json_find(resub, "state"), "done") << resub;
  EXPECT_EQ(json_find(resub, "cached"), "true");
}

TEST_F(ServerFixture, ResubmissionWithoutJournalReRunsCold) {
  // No journal: a resubmission runs the engine again from a cold start and
  // must reproduce the first run's rows.  `warm_seeded` is a reserved
  // result field that always reads 0.
  start(test_options("rerun"));
  Client client = connect();
  const std::string sub = client.submit(kTinyConfig);
  const std::string first = client.wait_result(std::stoull(json_find(sub, "id")), 20'000);
  ASSERT_EQ(json_find(first, "state"), "done");
  EXPECT_EQ(json_find(first, "cached"), "false");
  EXPECT_EQ(json_find(first, "warm_seeded"), "0");

  const std::string sub2 = client.submit(kTinyConfig);
  EXPECT_EQ(json_find(sub2, "cached"), "false");  // no journal: a real re-run
  const std::string second = client.wait_result(std::stoull(json_find(sub2, "id")), 20'000);
  ASSERT_EQ(json_find(second, "state"), "done");
  EXPECT_EQ(json_find(second, "cached"), "false");
  EXPECT_EQ(json_find(second, "warm_seeded"), "0");
  EXPECT_FALSE(json_find_strings(first, "rows").empty());
  EXPECT_EQ(json_find_strings(second, "rows"), json_find_strings(first, "rows"));
}

TEST_F(ServerFixture, OverloadedQueueRejectsExplicitly) {
  ServerOptions opts = test_options("overload");
  opts.queue_max = 2;
  start(opts);
  Client client = connect();
  // One slow job occupies the pool; wait for dispatch so it stops counting
  // against the queue bound, then two more fill the bounded queue.
  std::vector<std::uint64_t> ids;
  const std::string blocker = client.submit(slow_config(3'000'000));
  ASSERT_EQ(json_find(blocker, "ok"), "true") << blocker;
  ids.push_back(std::stoull(json_find(blocker, "id")));
  ASSERT_TRUE(wait_until([&] { return json_find(client.stats(), "running") == "1"; }, 5s));
  for (int i = 1; i < 3; ++i) {
    const std::string sub = client.submit(slow_config(3'000'000 + i));
    ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
    ids.push_back(std::stoull(json_find(sub, "id")));
  }
  const std::string rejected = client.submit(slow_config(3'000'100));
  EXPECT_EQ(json_find(rejected, "ok"), "false");
  EXPECT_EQ(json_find(rejected, "error"), "overloaded");
  EXPECT_NE(json_find(rejected, "message").find("queue full"), std::string::npos);

  // Shedding is load-dependent, not sticky: the daemon still answers, and
  // cancelling queued work reopens admission.
  EXPECT_EQ(json_find(client.ping(), "ok"), "true");
  (void)client.cancel(ids[2]);
  const std::string retry = client.submit(slow_config(3'000'100));
  EXPECT_EQ(json_find(retry, "ok"), "true") << retry;
  const std::string stats = client.stats();
  EXPECT_EQ(json_find(stats, "rejected_overloaded"), "1");
}

TEST_F(ServerFixture, PerClientQuotaProtectsOtherClients) {
  ServerOptions opts = test_options("quota");
  opts.client_quota = 2;
  start(opts);
  Client client = connect();
  (void)client.submit(slow_config(3'100'000), {{"client", "greedy"}});
  (void)client.submit(slow_config(3'100'001), {{"client", "greedy"}});
  const std::string rejected = client.submit(slow_config(3'100'002), {{"client", "greedy"}});
  EXPECT_EQ(json_find(rejected, "ok"), "false");
  EXPECT_EQ(json_find(rejected, "error"), "quota");

  // A different client is unaffected by the greedy one's quota.
  const std::string other = client.submit(kTinyConfig, {{"client", "modest"}});
  EXPECT_EQ(json_find(other, "ok"), "true") << other;
  const std::string stats = client.stats();
  EXPECT_EQ(json_find(stats, "rejected_quota"), "1");
}

TEST_F(ServerFixture, RoundRobinKeepsFloodersFromStarvingOthers) {
  start(test_options("fair"));
  Client client = connect();
  // alice floods three ~800ms jobs; bob submits one tiny job afterwards.
  std::vector<std::uint64_t> alice;
  for (int i = 0; i < 3; ++i) {
    const std::string sub = client.submit(slow_config(3'500'000 + i), {{"client", "alice"}});
    ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
    alice.push_back(std::stoull(json_find(sub, "id")));
  }
  const std::string bob_sub = client.submit(kTinyConfig, {{"client", "bob"}});
  ASSERT_EQ(json_find(bob_sub, "ok"), "true") << bob_sub;
  const std::uint64_t bob = std::stoull(json_find(bob_sub, "id"));

  // Bob is behind alice's first job on a width-1 pool; sanitizer builds can
  // stretch that job well past 30 s, so wait with generous slack.
  const std::string bob_res = client.wait_result(bob, 180'000);
  ASSERT_EQ(json_find(bob_res, "state"), "done") << bob_res;
  // Round-robin dispatch ran bob's job ahead of alice's backlog: her last
  // job cannot be terminal yet (global FIFO would finish it before bob).
  const std::string tail = client.request("status", {{"id", std::to_string(alice[2])}});
  const std::string state = json_find(tail, "state");
  EXPECT_TRUE(state == "queued" || state == "running") << tail;
  for (const std::uint64_t id : alice) (void)client.cancel(id);
}

TEST_F(ServerFixture, CancelQueuedAndRunningJobs) {
  start(test_options("cancel"));
  Client client = connect();
  const std::string run_sub = client.submit(slow_config(3'600'000));
  const std::uint64_t running = std::stoull(json_find(run_sub, "id"));
  const std::string queue_sub = client.submit(slow_config(3'600'001));
  const std::uint64_t queued = std::stoull(json_find(queue_sub, "id"));

  // A queued job cancels instantly and never runs.
  const std::string c1 = client.cancel(queued);
  EXPECT_EQ(json_find(c1, "state"), "cancelled");
  const std::string r1 = client.wait_result(queued, 5000);
  EXPECT_EQ(json_find(r1, "state"), "cancelled");
  EXPECT_EQ(json_find(r1, "cancel_reason"), "user");

  // A running job is soft-cancelled and turns terminal shortly after
  // (sanitizer builds can stretch the cancel acknowledgment to tens of
  // seconds, hence the slack).
  (void)client.cancel(running);
  const std::string r2 = client.wait_result(running, 180'000);
  EXPECT_EQ(json_find(r2, "state"), "cancelled") << r2;
  EXPECT_EQ(json_find(r2, "cancel_reason"), "user");

  // Cancelling a terminal job is idempotent, not an error.
  const std::string c3 = client.cancel(queued);
  EXPECT_EQ(json_find(c3, "ok"), "true");
  EXPECT_EQ(json_find(c3, "state"), "cancelled");
}

TEST_F(ServerFixture, BudgetDeadlineCancelsRunawayJob) {
  ServerOptions opt = test_options("budget");
  // A loaded machine can delay the job's next cancellation check by seconds;
  // a generous grace keeps the watchdog's soft-cancel from escalating to
  // abandonment (which is exactly what this test asserts does not happen).
  opt.grace_ms = 60'000;
  start(opt);
  Client client = connect();
  const std::string sub = client.submit(slow_config(4'000'000), {{"budget_ms", "200"}});
  ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
  const std::string res = client.wait_result(std::stoull(json_find(sub, "id")), 120'000);
  EXPECT_EQ(json_find(res, "state"), "cancelled") << res;
  EXPECT_EQ(json_find(res, "cancel_reason"), "watchdog");
  const std::string stats = client.stats();
  EXPECT_EQ(json_find(stats, "watchdog_cancels"), "1");
  EXPECT_EQ(json_find(stats, "abandoned"), "0");  // cancel honoured within grace
}

TEST_F(ServerFixture, UnknownIdsAreExplicitErrors) {
  start(test_options("unknown"));
  Client client = connect();
  for (const char* verb : {"status", "result", "cancel"}) {
    const std::string resp = client.request(verb, {{"id", "424242"}});
    EXPECT_EQ(json_find(resp, "ok"), "false") << resp;
    EXPECT_EQ(json_find(resp, "error"), "unknown_id") << resp;
  }
}

TEST_F(ServerFixture, DrainFinishesWorkRejectsNewAndExitsZero) {
  ServerOptions opt = test_options("drain");
  // The drain must finish this job, not the watchdog: sanitizer builds on a
  // loaded machine stretch the ~300 ms job past the default 30 s test budget.
  opt.default_budget_ms = 600'000;
  start(opt);
  Client client = connect();
  const std::string sub = client.submit(slow_config(2'000'000));
  const std::uint64_t id = std::stoull(json_find(sub, "id"));

  const std::string drain = client.drain();
  EXPECT_EQ(json_find(drain, "ok"), "true");

  const std::string rejected = client.submit(kTinyConfig);
  EXPECT_EQ(json_find(rejected, "ok"), "false");
  EXPECT_EQ(json_find(rejected, "error"), "draining");

  // The in-flight job still runs to its real result.  Sanitizer builds on a
  // loaded machine stretch the ~300 ms job well past 30 s, hence the slack.
  const std::string res = client.wait_result(id, 180'000);
  EXPECT_EQ(json_find(res, "state"), "done") << res;
  client.close();
  EXPECT_EQ(server_->wait(), 0);
  EXPECT_TRUE(server_->stopped());
}

TEST_F(ServerFixture, ForceStopCancelsEverythingAndExitsSix) {
  start(test_options("force"));
  Client client = connect();
  const std::string sub = client.submit(slow_config(8'000'001));
  ASSERT_EQ(json_find(sub, "ok"), "true");
  server_->request_force_stop();
  EXPECT_EQ(server_->wait(), 6);
}

TEST_F(ServerFixture, StaleSocketFileIsReplacedOnStartup) {
  ServerOptions opts = test_options("stale");
  {  // leave a dead socket file behind
    ServerOptions first = opts;
    Server dead(first);
    dead.start();
    dead.request_force_stop();
    (void)dead.wait();
  }
  ASSERT_TRUE(fs::exists(opts.socket_path) || true);  // file may or may not linger
  start(opts);  // must bind regardless
  Client client = connect();
  EXPECT_EQ(json_find(client.ping(), "ok"), "true");
}

TEST_F(ServerFixture, SecondDaemonOnLiveSocketRefusesToStart) {
  start(test_options("live"));
  ServerOptions dup = server_->options();
  Server second(dup);
  EXPECT_THROW(second.start(), std::runtime_error);
  // The running daemon is unharmed.
  Client client = connect();
  EXPECT_EQ(json_find(client.ping(), "ok"), "true");
}

TEST_F(ServerFixture, StatsExposeQueueAndCacheCounters) {
  start(test_options("stats"));
  Client client = connect();
  const std::string sub = client.submit(kTinyConfig);
  (void)client.wait_result(std::stoull(json_find(sub, "id")), 20'000);
  const std::string stats = client.stats();
  EXPECT_EQ(json_find(stats, "ok"), "true");
  EXPECT_EQ(json_find(stats, "submitted"), "1");
  EXPECT_EQ(json_find(stats, "done"), "1");
  EXPECT_EQ(json_find(stats, "pool_width"), "1");
  EXPECT_EQ(json_find(stats, "draining"), "false");
  EXPECT_TRUE(wait_until(
      [&] {
        const std::string s = connect().stats();
        return json_find(s, "queue_depth") == "0" && json_find(s, "running") == "0";
      },
      5s));
}

// ---- client connect retries --------------------------------------------

TEST(DaemonClientTest, NoRetriesFailsFastWithAClearMessage) {
  const std::string missing =
      (fs::path(::testing::TempDir()) / ("noclient." + std::to_string(::getpid()) + ".sock"))
          .string();
  fs::remove(missing);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    Client client(missing, /*io_timeout_ms=*/1000, /*connect_retries=*/0);
    FAIL() << "expected the connect to fail";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cannot connect to daemon"), std::string::npos) << msg;
    EXPECT_NE(msg.find(missing), std::string::npos) << msg;
    EXPECT_NE(msg.find("hemcpad"), std::string::npos) << msg;
  }
  // Zero retries means zero backoff sleeps: the failure is immediate.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
}

TEST(DaemonClientTest, RetriesGiveUpOnceTheBudgetIsSpent) {
  const std::string missing =
      (fs::path(::testing::TempDir()) / ("noclient2." + std::to_string(::getpid()) + ".sock"))
          .string();
  fs::remove(missing);
  EXPECT_THROW(Client(missing, /*io_timeout_ms=*/1000, /*connect_retries=*/2),
               std::runtime_error);
}

TEST_F(ServerFixture, ClientRetriesConnectUntilTheDaemonComesUp) {
  // The daemon binds its socket ~300ms after the client starts dialling;
  // the client's jittered exponential backoff must ride out the gap (this
  // is the restart window every `hemcpad` client verb has to survive).
  ServerOptions opts = test_options("lateboot");
  const std::string socket_path = opts.socket_path;
  fs::remove(socket_path);
  std::thread boot([&] {
    std::this_thread::sleep_for(300ms);
    start(opts);
  });
  try {
    Client client(socket_path, /*io_timeout_ms=*/120'000, /*connect_retries=*/8);
    EXPECT_EQ(json_find(client.ping(), "ok"), "true");
  } catch (...) {
    boot.join();
    throw;
  }
  boot.join();
}

// ---- crash isolation -------------------------------------------------

const char* kCrasherConfig =
    "option inject_fault=segv\n"
    "resource CPU1 spp\n"
    "source s1 periodic period=250\n"
    "task C resource=CPU1 priority=1 cet=24\n"
    "activate C from=s1\n";

// What the crash detail names.  Natively the worker dies of SIGSEGV and the
// detail names the signal; under ASan or TSan the sanitizer runtime catches
// the fault and exits the worker with a nonzero status instead.
constexpr bool sanitizer_catches_segv() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}
constexpr const char* kCrashDetail = sanitizer_catches_segv() ? "status" : "signal";

TEST_F(ServerFixture, CrashingConfigIsIsolatedThenPoisoned) {
  if (!exec::WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  ServerOptions opts = test_options("poison");
  opts.journal_path = opts.socket_path + ".journal";
  fs::remove(opts.journal_path);
  start(opts);
  Client client = connect();

  // First crash: the worker process dies, the daemon records it and lives.
  const std::string sub1 = client.submit(kCrasherConfig);
  ASSERT_EQ(json_find(sub1, "ok"), "true") << sub1;
  const std::string res1 = client.wait_result(std::stoull(json_find(sub1, "id")), 20'000);
  EXPECT_EQ(json_find(res1, "state"), "crashed") << res1;
  EXPECT_NE(json_find(res1, "message").find(kCrashDetail), std::string::npos) << res1;

  // Second crash promotes the config to poisoned.
  const std::string sub2 = client.submit(kCrasherConfig);
  ASSERT_EQ(json_find(sub2, "ok"), "true") << sub2;
  EXPECT_EQ(json_find(sub2, "cached"), "false");  // crashed != terminal-done: re-runs
  const std::string res2 = client.wait_result(std::stoull(json_find(sub2, "id")), 20'000);
  EXPECT_EQ(json_find(res2, "state"), "poisoned") << res2;

  // Third submission short-circuits: quarantined, nothing runs.
  const std::string sub3 = client.submit(kCrasherConfig);
  EXPECT_EQ(json_find(sub3, "state"), "poisoned") << sub3;
  EXPECT_EQ(json_find(sub3, "cached"), "true");

  // The daemon kept serving through all of it.
  const std::string ok = client.submit(kTinyConfig);
  const std::string res = client.wait_result(std::stoull(json_find(ok, "id")), 20'000);
  EXPECT_EQ(json_find(res, "state"), "done");

  const std::string stats = client.stats();
  EXPECT_EQ(json_find(stats, "crashed"), "1");
  EXPECT_EQ(json_find(stats, "poisoned"), "1");
  EXPECT_EQ(json_find(stats, "poisoned_rejects"), "1");
}

TEST_F(ServerFixture, PoisonQuarantineSurvivesDaemonRestart) {
  if (!exec::WorkerProcess::supported()) GTEST_SKIP() << "no process isolation here";
  ServerOptions opts = test_options("poisonjournal");
  opts.journal_path = opts.socket_path + ".journal";
  fs::remove(opts.journal_path);
  start(opts);
  {
    Client client = connect();
    const std::string sub1 = client.submit(kCrasherConfig);
    (void)client.wait_result(std::stoull(json_find(sub1, "id")), 20'000);
    const std::string sub2 = client.submit(kCrasherConfig);
    const std::string res2 = client.wait_result(std::stoull(json_find(sub2, "id")), 20'000);
    ASSERT_EQ(json_find(res2, "state"), "poisoned") << res2;
    client.drain();
  }
  EXPECT_EQ(server_->wait(), 0);

  // A fresh daemon on the same journal seeds its crash ledger from the
  // `poisoned` record: the config is refused without forking a worker.
  ServerOptions opts2 = test_options("poisonjournal2");
  opts2.journal_path = opts.journal_path;
  start(opts2);
  Client client = connect();
  const std::string resub = client.submit(kCrasherConfig);
  EXPECT_EQ(json_find(resub, "state"), "poisoned") << resub;
  EXPECT_EQ(json_find(resub, "cached"), "true");
  // And it still serves clean work.
  const std::string ok = client.submit(kTinyConfig);
  const std::string res = client.wait_result(std::stoull(json_find(ok, "id")), 20'000);
  EXPECT_EQ(json_find(res, "state"), "done");
}

}  // namespace
}  // namespace hem::daemon

#endif  // POSIX
