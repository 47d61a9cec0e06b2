// hemcpad — fault-tolerant analysis daemon for the HEM compositional
// analysis engine, plus its command-line client.
//
// Server:
//   hemcpad serve --socket <path> [--pool-jobs <n>] [--queue-max <n>]
//                 [--client-quota <n>] [--budget-ms <ms>] [--max-budget-ms <ms>]
//                 [--grace-ms <ms>] [--max-frame-bytes <n>] [--io-timeout-ms <ms>]
//                 [--idle-timeout-ms <ms>] [--result-retention <n>]
//                 [--journal <file>] [--max-connections <n>] [--strict] [--jobs <n>]
//                 [--max-iterations <n>] [--worker-memory-mb <n>] [--worker-stack-mb <n>]
//
//   The daemon analyses configurations submitted over the Unix-domain
//   socket.  Every analysis is a cold engine run in a forked, rlimit-capped
//   worker process: a config that segfaults, aborts, or exhausts its
//   memory budget becomes a `crashed` job result instead of killing the
//   daemon, and a config that crashes its worker twice is quarantined
//   (`poisoned`) — later submissions of the same bytes are refused without
//   running, across restarts.  With --journal, resubmitting the identical
//   bytes of a completed job is answered from the journal without running.
//   SIGTERM/SIGINT drains gracefully (stop admission, finish queued and
//   running work, exit 0); a second signal force-stops (cancel everything,
//   exit 6).  See docs/daemon.md and docs/robustness.md.
//
// Client:
//   hemcpad submit <config-file> --socket <path> [--wait] [--budget-ms <ms>]
//                  [--client <name>] [--label <name>] [--detach] [--retries <n>]
//   hemcpad status <id>  --socket <path>
//   hemcpad result <id>  --socket <path> [--timeout-ms <ms>]
//   hemcpad cancel <id>  --socket <path>
//   hemcpad stats        --socket <path>
//   hemcpad ping         --socket <path>
//   hemcpad drain        --socket <path> [--force]
//
//   All client verbs accept --retries <n> (default 3): transient connect
//   failures — daemon still starting, restarting, or resetting a full
//   backlog — are retried with jittered exponential backoff before the
//   verb gives up with exit 3.
//
// Exit codes (documented in docs/robustness.md):
//   serve:  0 clean drain | 2 startup failure | 6 forced shutdown | 3 usage
//   client: 0 ok/done | 2 job failed | 4 done but degraded |
//           5 cancelled/abandoned/crashed/poisoned/rejected |
//           3 usage or connect failure

#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"

namespace {

int usage() {
  std::cerr << "usage: hemcpad serve --socket <path> [server options]\n"
               "                     [--worker-memory-mb <n>] [--worker-stack-mb <n>]\n"
               "       hemcpad submit <config> --socket <path> [--wait] [--budget-ms <ms>]\n"
               "                      [--client <name>] [--label <name>] [--detach]\n"
               "       hemcpad status|result|cancel <id> --socket <path>\n"
               "       hemcpad stats|ping|drain --socket <path> [--force]\n"
               "       (client verbs: --retries <n> retries transient connects, default 3)\n";
  return 3;
}

bool parse_ll(const char* arg, long long& out) {
  try {
    std::size_t pos = 0;
    out = std::stoll(arg, &pos);
    return pos == std::strlen(arg);
  } catch (...) {
    return false;
  }
}

int bad_number(const std::string& flag, const char* arg) {
  std::cerr << "error: argument to " << flag << " is not a number: '" << arg << "'\n";
  return 3;
}

// ---- serve mode -----------------------------------------------------------

volatile std::sig_atomic_t g_signals = 0;

extern "C" void handle_signal(int /*signum*/) { g_signals = g_signals + 1; }

int run_serve(int argc, char** argv) {
  hem::daemon::ServerOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    long long v = 0;
    const auto take = [&](long long min_value) {
      if (i + 1 >= argc || !parse_ll(argv[i + 1], v) || v < min_value) return false;
      i += 1;
      return true;
    };
    if (flag == "--socket" && i + 1 < argc && argv[i + 1][0] != '\0') {
      opts.socket_path = argv[++i];
    } else if (flag == "--pool-jobs") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.pool_width = static_cast<int>(v);
    } else if (flag == "--queue-max") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.queue_max = static_cast<int>(v);
    } else if (flag == "--client-quota") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.client_quota = static_cast<int>(v);
    } else if (flag == "--budget-ms") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.default_budget_ms = v;
    } else if (flag == "--max-budget-ms") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.max_budget_ms = v;
    } else if (flag == "--grace-ms") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.grace_ms = v;
    } else if (flag == "--max-frame-bytes") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.max_frame_bytes = static_cast<std::size_t>(v);
    } else if (flag == "--io-timeout-ms") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.io_timeout_ms = v;
    } else if (flag == "--idle-timeout-ms") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.idle_timeout_ms = v;
    } else if (flag == "--result-retention") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.result_retention = static_cast<std::size_t>(v);
    } else if (flag == "--max-connections") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.max_connections = static_cast<int>(v);
    } else if (flag == "--journal" && i + 1 < argc && argv[i + 1][0] != '\0') {
      opts.journal_path = argv[++i];
    } else if (flag == "--strict") {
      opts.strict = true;
    } else if (flag == "--jobs") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.engine_jobs = static_cast<int>(v);
    } else if (flag == "--max-iterations") {
      if (!take(1)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.max_iterations = static_cast<int>(v);
    } else if (flag == "--worker-memory-mb") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.worker_memory_mb = v;
    } else if (flag == "--worker-stack-mb") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      opts.worker_stack_mb = v;
    } else {
      std::cerr << "error: unknown serve option '" << flag << "'\n";
      return usage();
    }
  }
  if (opts.socket_path.empty()) {
    std::cerr << "error: serve requires --socket <path>\n";
    return usage();
  }

  hem::daemon::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "[hemcpad] serving on " << opts.socket_path << " (pool " << opts.pool_width
            << ", queue " << opts.queue_max << ")\n";

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
#if defined(SIGPIPE)
  std::signal(SIGPIPE, SIG_IGN);  // peer resets are per-connection events
#endif

  // Signal pump: first signal drains gracefully, a second one force-stops.
  std::sig_atomic_t seen = 0;
  while (!server.stopped()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_signals != seen) {
      seen = g_signals;
      if (seen == 1) {
        std::cerr << "[hemcpad] shutdown requested: draining\n";
        server.request_drain();
      } else {
        std::cerr << "[hemcpad] second signal: forcing shutdown\n";
        server.request_force_stop();
      }
    }
  }
  const int code = server.wait();
  std::cerr << "[hemcpad] exit " << code << (code == 0 ? " (clean drain)" : " (forced)") << "\n";
  return code;
}

// ---- client mode ----------------------------------------------------------

struct ClientArgs {
  std::string socket_path;
  std::string operand;  ///< config file or job id
  long long budget_ms = 0;
  long long timeout_ms = 60'000;
  long long retries = 3;
  std::string client_name;
  std::string label;
  bool wait = false;
  bool detach = false;
  bool force = false;
};

int parse_client_args(int argc, char** argv, int first, bool needs_operand, ClientArgs& out) {
  int pos_seen = 0;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    long long v = 0;
    const auto take = [&](long long min_value) {
      if (i + 1 >= argc || !parse_ll(argv[i + 1], v) || v < min_value) return false;
      i += 1;
      return true;
    };
    if (flag == "--socket" && i + 1 < argc && argv[i + 1][0] != '\0') {
      out.socket_path = argv[++i];
    } else if (flag == "--budget-ms") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      out.budget_ms = v;
    } else if (flag == "--timeout-ms") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      out.timeout_ms = v;
    } else if (flag == "--retries") {
      if (!take(0)) return bad_number(flag, i + 1 < argc ? argv[i + 1] : "");
      out.retries = v;
    } else if (flag == "--client" && i + 1 < argc && argv[i + 1][0] != '\0') {
      out.client_name = argv[++i];
    } else if (flag == "--label" && i + 1 < argc && argv[i + 1][0] != '\0') {
      out.label = argv[++i];
    } else if (flag == "--wait") {
      out.wait = true;
    } else if (flag == "--detach") {
      out.detach = true;
    } else if (flag == "--force") {
      out.force = true;
    } else if (!flag.empty() && flag[0] != '-' && pos_seen == 0) {
      out.operand = flag;
      pos_seen = 1;
    } else {
      std::cerr << "error: unknown option '" << flag << "'\n";
      return usage();
    }
  }
  if (out.socket_path.empty()) {
    std::cerr << "error: --socket <path> is required\n";
    return usage();
  }
  if (needs_operand && out.operand.empty()) {
    std::cerr << "error: missing operand\n";
    return usage();
  }
  return 0;
}

/// Map a terminal result JSON to the client exit-code table.
int result_exit_code(const std::string& json) {
  const std::string state = hem::daemon::json_find(json, "state");
  if (state == "done")
    return hem::daemon::json_find(json, "degraded") == "true" ? 4 : 0;
  if (state == "failed") return 2;
  return 5;  // cancelled, abandoned
}

int run_client(const std::string& verb, int argc, char** argv) {
  const bool needs_operand = verb == "submit" || verb == "status" || verb == "result" ||
                             verb == "cancel";
  ClientArgs args;
  if (const int rc = parse_client_args(argc, argv, 2, needs_operand, args); rc != 0) return rc;

  try {
    hem::daemon::Client client(args.socket_path, args.timeout_ms + 5000,
                               static_cast<int>(args.retries));
    std::string response;
    if (verb == "submit") {
      std::ifstream in(args.operand, std::ios::binary);
      if (!in) {
        std::cerr << "error: cannot read config file '" << args.operand << "'\n";
        return 3;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      std::vector<std::pair<std::string, std::string>> kv;
      if (args.budget_ms > 0) kv.emplace_back("budget_ms", std::to_string(args.budget_ms));
      if (!args.client_name.empty()) kv.emplace_back("client", args.client_name);
      if (!args.label.empty()) kv.emplace_back("label", args.label);
      if (args.detach) kv.emplace_back("detach", "1");
      response = client.submit(buf.str(), kv);
      std::cout << response << "\n";
      if (hem::daemon::json_find(response, "ok") != "true") return 5;
      if (args.wait) {
        const std::string id = hem::daemon::json_find(response, "id");
        long long idv = 0;
        if (!parse_ll(id.c_str(), idv)) return 2;
        const std::string result =
            client.wait_result(static_cast<std::uint64_t>(idv), args.timeout_ms);
        std::cout << result << "\n";
        if (hem::daemon::json_find(result, "ok") != "true") return 5;
        return result_exit_code(result);
      }
      return 0;
    }
    if (verb == "status" || verb == "result" || verb == "cancel") {
      long long idv = 0;
      if (!parse_ll(args.operand.c_str(), idv) || idv < 0) {
        std::cerr << "error: '" << args.operand << "' is not a job id\n";
        return 3;
      }
      if (verb == "status")
        response = client.request("status", {{"id", args.operand}});
      else if (verb == "cancel")
        response = client.cancel(static_cast<std::uint64_t>(idv));
      else
        response = client.wait_result(static_cast<std::uint64_t>(idv), args.timeout_ms);
      std::cout << response << "\n";
      if (hem::daemon::json_find(response, "ok") != "true") return 5;
      if (verb == "result") return result_exit_code(response);
      return 0;
    }
    if (verb == "stats") {
      std::cout << client.stats() << "\n";
      return 0;
    }
    if (verb == "ping") {
      response = client.ping();
      std::cout << response << "\n";
      return hem::daemon::json_find(response, "ok") == "true" ? 0 : 5;
    }
    if (verb == "drain") {
      std::cout << client.drain(args.force) << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string verb = argv[1];
  if (verb == "serve") return run_serve(argc, argv);
  if (verb == "submit" || verb == "status" || verb == "result" || verb == "cancel" ||
      verb == "stats" || verb == "ping" || verb == "drain")
    return run_client(verb, argc, argv);
  return usage();
}
