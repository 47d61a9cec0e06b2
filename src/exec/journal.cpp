#include "exec/journal.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exec/supervisor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace hem::exec {

namespace {

constexpr const char* kHeader = "hemcpa-journal v1";

/// Flush a path's data (or, for a directory, its entries) to stable
/// storage.  Crash durability only; a failed fsync is reported so callers
/// can decide, but the write itself already succeeded.
[[nodiscard]] bool sync_path(const std::string& path, bool directory) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)directory;
  return true;  // no fsync primitive on this platform; best effort
#endif
}

/// Directory part of `path` for fsync-after-rename ("" -> ".").
[[nodiscard]] std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

[[noreturn]] void corrupt(const std::string& path, int line_no, const std::string& why) {
  throw std::runtime_error("corrupt journal" + (path.empty() ? "" : " '" + path + "'") +
                           " (line " + std::to_string(line_no) + "): " + why +
                           " - delete the journal or rerun without --resume");
}

/// Consume `key=` at the current position and return the value up to the
/// next space.  The journal is machine-written, so any deviation is
/// corruption (strict parse) or a torn tail (tolerant parse).
bool take_field(const std::string& line, std::size_t& pos, const char* key, std::string& value) {
  const std::string prefix = std::string(key) + "=";
  if (line.compare(pos, prefix.size(), prefix) != 0) return false;
  pos += prefix.size();
  const std::size_t end = line.find(' ', pos);
  value = line.substr(pos, end == std::string::npos ? end : end - pos);
  pos = end == std::string::npos ? line.size() : end + 1;
  return true;
}

bool parse_long(const std::string& value, long& out) {
  try {
    std::size_t used = 0;
    out = std::stol(value, &used);
    return used == value.size() && out >= 0;
  } catch (const std::exception&) {
    return false;
  }
}

/// Parse one `job ...` line without throwing; `err` explains a refusal.
bool parse_job_line(const std::string& line, JournalEntry& e, long& rows, std::string& err) {
  if (line.rfind("job ", 0) != 0) {
    err = "expected 'job' or 'end'";
    return false;
  }
  std::size_t pos = 4;
  std::string v;
  if (!take_field(line, pos, "fp", v) || v.size() != 16 ||
      v.find_first_not_of("0123456789abcdef") != std::string::npos) {
    err = "bad fingerprint '" + v + "'";
    return false;
  }
  e.fingerprint = std::stoull(v, nullptr, 16);
  // Only terminal states are journaled; an unknown name parses as queued.
  if (!take_field(line, pos, "status", e.status) ||
      !terminal(parse_job_state(e.status).value_or(JobState::kQueued))) {
    err = "bad status '" + e.status + "'";
    return false;
  }
  long n = 0;
  if (!take_field(line, pos, "attempts", v) || !parse_long(v, n)) {
    err = "bad attempts '" + v + "'";
    return false;
  }
  e.attempts = static_cast<int>(n);
  if (!take_field(line, pos, "duration_ms", v) || !parse_long(v, n)) {
    err = "bad duration_ms '" + v + "'";
    return false;
  }
  e.duration_ms = n;
  if (!take_field(line, pos, "degraded", v) || !parse_long(v, n)) {
    err = "bad degraded '" + v + "'";
    return false;
  }
  e.degraded = n != 0;
  if (!take_field(line, pos, "rows", v) || !parse_long(v, rows)) {
    err = "bad row count '" + v + "'";
    return false;
  }
  // `path=` last: everything to end of line, spaces and '=' included.
  if (line.compare(pos, 5, "path=") != 0) {
    err = "expected 'path='";
    return false;
  }
  e.config_path = line.substr(pos + 5);
  if (e.config_path.empty()) {
    err = "empty config path";
    return false;
  }
  return true;
}

}  // namespace

std::uint64_t fingerprint_bytes(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

std::uint64_t fingerprint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read config file '" + path + "' for fingerprinting");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  return fingerprint_bytes(bytes.data(), bytes.size());
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return std::string(buf, 16);
}

bool Journal::load() {
  recovery_ = Recovery{};
  std::ifstream in(path_, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  entries_ = parse_tolerant(text, recovery_);
  if (recovery_.torn) {
    // Park the torn bytes for post-mortem, then rewrite the journal as the
    // salvaged prefix so every later reader sees a well-formed file.
    recovery_.quarantine_path = path_ + ".torn";
    std::ofstream tail(recovery_.quarantine_path, std::ios::binary | std::ios::trunc);
    tail << text.substr(recovery_.valid_bytes);
    save();
  }
  return true;
}

void Journal::add(JournalEntry entry) {
  entries_.push_back(std::move(entry));
  save();
}

void Journal::clear() {
  entries_.clear();
  save();
}

const JournalEntry* Journal::find(const std::string& config_path,
                                  std::uint64_t fingerprint) const {
  for (const JournalEntry& e : entries_)
    if (e.config_path == config_path && e.fingerprint == fingerprint) return &e;
  return nullptr;
}

const JournalEntry* Journal::find(std::uint64_t fingerprint) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it)
    if (it->fingerprint == fingerprint) return &*it;
  return nullptr;
}

std::string Journal::render() const {
  std::ostringstream out;
  out << kHeader << '\n';
  for (const JournalEntry& e : entries_) {
    out << "job fp=" << fingerprint_hex(e.fingerprint) << " status=" << e.status
        << " attempts=" << e.attempts << " duration_ms=" << e.duration_ms
        << " degraded=" << (e.degraded ? 1 : 0) << " rows=" << e.rows.size()
        << " path=" << e.config_path << '\n';
    for (const std::string& row : e.rows) out << "row " << row << '\n';
  }
  out << "end\n";
  return out.str();
}

std::vector<JournalEntry> Journal::parse(const std::string& text) {
  Recovery recovery;
  std::vector<JournalEntry> entries = parse_tolerant(text, recovery);
  if (recovery.torn)
    corrupt("", static_cast<int>(recovery.entries_kept) + 1,
            recovery.reason + " (torn tail after " + std::to_string(recovery.entries_kept) +
                " complete record(s))");
  return entries;
}

std::vector<JournalEntry> Journal::parse_tolerant(const std::string& text, Recovery& recovery) {
  recovery = Recovery{};
  std::vector<JournalEntry> entries;
  const std::string header_line = std::string(kHeader) + "\n";
  if (text.size() < header_line.size() ||
      text.compare(0, header_line.size(), header_line) != 0) {
    // A machine-written journal can only be short at the front because a
    // truncation cut the header itself; anything else was never a journal.
    if (header_line.compare(0, text.size(), text) == 0) {
      recovery.torn = true;
      recovery.reason = "truncated header";
      return entries;
    }
    corrupt("", 1, std::string("missing header '") + kHeader + "'");
  }

  std::size_t pos = header_line.size();
  std::size_t good = pos;  ///< end of the last complete record (or header)
  int line_no = 1;
  bool ended = false;
  std::string line;
  // 1 = complete line consumed, 0 = no bytes left, -1 = final line lacked
  // its newline (by construction a torn write — the renderer always
  // terminates lines).
  const auto next_line = [&](std::string& out_line) -> int {
    if (pos >= text.size()) return 0;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      out_line = text.substr(pos);
      pos = text.size();
      return -1;
    }
    out_line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return 1;
  };

  while (true) {
    const int got = next_line(line);
    if (got == 0) {
      recovery.reason = "missing 'end' trailer (interrupted write?)";
      break;
    }
    ++line_no;
    if (got < 0) {
      recovery.reason = "line " + std::to_string(line_no) + " truncated mid-write";
      break;
    }
    if (line == "end") {
      ended = true;
      good = pos;
      break;
    }
    JournalEntry e;
    long rows = 0;
    std::string err;
    if (!parse_job_line(line, e, rows, err)) {
      recovery.reason = "line " + std::to_string(line_no) + ": " + err;
      break;
    }
    bool rows_ok = true;
    for (long i = 0; i < rows; ++i) {
      const int row_got = next_line(line);
      if (row_got != 0) ++line_no;
      if (row_got != 1 || line.rfind("row ", 0) != 0) {
        recovery.reason = "line " + std::to_string(line_no) + ": truncated row block";
        rows_ok = false;
        break;
      }
      e.rows.push_back(line.substr(4));
    }
    if (!rows_ok) break;
    entries.push_back(std::move(e));
    good = pos;
  }

  recovery.torn = !ended;
  recovery.valid_bytes = good;
  recovery.entries_kept = entries.size();
  return entries;
}

void Journal::save() const {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write journal temp file '" + tmp + "'");
    out << render();
    out.flush();
    if (!out) throw std::runtime_error("failed writing journal temp file '" + tmp + "'");
  }
  // Durability before visibility: fsync the temp file so the rename can
  // never install a journal whose bytes are still only in the page cache —
  // a crash after rename-before-fsync could otherwise surface an empty or
  // torn file under the final name.
  if (!sync_path(tmp, /*directory=*/false)) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot fsync journal temp file '" + tmp + "'");
  }
  // POSIX rename() atomically replaces the destination: readers see either
  // the old complete journal or the new one, never a torn file.
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot atomically replace journal '" + path_ + "'");
  }
  // Persist the rename itself: fsync the parent directory so the new
  // directory entry survives a power failure.  Non-fatal if it fails (the
  // data is safe; only the entry's durability window is weaker).
  (void)sync_path(parent_dir(path_), /*directory=*/true);
}

}  // namespace hem::exec
