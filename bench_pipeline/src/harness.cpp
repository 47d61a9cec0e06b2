#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "exec/journal.hpp"

namespace bench {

std::string Workload::text_of(std::uint64_t fp) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = texts_.find(fp);
  return it == texts_.end() ? std::string() : it->second;
}

std::uint64_t Workload::remember(const std::string& text) {
  const std::uint64_t fp = text_fingerprint(text);
  std::lock_guard<std::mutex> lk(mu_);
  texts_.try_emplace(fp, text);
  return fp;
}

std::uint64_t rows_digest(const std::vector<std::string>& rows) {
  std::string joined;
  for (const std::string& row : rows) {
    const std::size_t comma = row.find(',');
    joined.append(comma == std::string::npos ? row : row.substr(comma + 1));
    joined.push_back('\n');
  }
  return hem::exec::fingerprint_bytes(joined.data(), joined.size());
}

std::uint64_t text_fingerprint(const std::string& text) {
  return hem::exec::fingerprint_bytes(text.data(), text.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(lo);
  // Failed ops are +inf samples; keep inf - inf and 0 * inf out of the sum.
  if (frac == 0.0 || v[lo] == v[lo + 1]) return v[lo];
  return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

double cpu_ms_with_children() {
  const auto ms = [](const rusage& ru) {
    return (static_cast<double>(ru.ru_utime.tv_sec) + static_cast<double>(ru.ru_stime.tv_sec)) *
               1e3 +
           (static_cast<double>(ru.ru_utime.tv_usec) + static_cast<double>(ru.ru_stime.tv_usec)) /
               1e3;
  };
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return ms(self) + ms(children);
}

void make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("cannot create directory '" + dir + "': " + ec.message());
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace bench
