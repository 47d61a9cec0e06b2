#include "inputs.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "scenarios/paper_system.hpp"
#include "scenarios/synth.hpp"

namespace bench {

namespace {

std::string synth_text(int resources, int tasks, std::uint64_t seed, int packed_permille,
                       int rr_permille) {
  hem::scenarios::SynthParams p;
  p.resources = resources;
  p.tasks = tasks;
  p.seed = seed;
  p.packed_permille = packed_permille;
  p.rr_permille = rr_permille;
  return hem::scenarios::to_config_text(hem::scenarios::build_synth_system(p));
}

std::string synth_name(int resources, int tasks, std::uint64_t seed, int packed_permille) {
  return "synth_r" + std::to_string(resources) + "_t" + std::to_string(tasks) + "_s" +
         std::to_string(seed) + (packed_permille > 0 ? "_p" + std::to_string(packed_permille) : "");
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

}  // namespace

std::string paper_config(bool hierarchical) {
  return hem::scenarios::to_config_text(hem::scenarios::build_paper_system({}, hierarchical));
}

std::vector<Input> wide_inputs(std::uint64_t seed, int count, bool hierarchical) {
  const int packed = hierarchical ? 500 : 0;
  std::vector<Input> out;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
    out.push_back({synth_name(100, 1000, s, packed),
                   synth_text(100, 1000, s, packed, hierarchical ? 50 : 0)});
  }
  return out;
}

std::vector<Input> fleet_inputs(std::uint64_t seed, int count) {
  std::vector<Input> out;
  for (int i = 0; i < count; ++i) {
    const bool packed = i % 3 == 0;
    // Synth places a CAN bus on every fourth resource; packed frames need one.
    const int resources = packed ? 4 + i % 5 : 2 + i % 7;
    const int tasks = resources * (3 + (i / 7) % 5);
    const int permille = packed ? 250 : 0;
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
    out.push_back({"fleet_" + std::to_string(i) + "_" + synth_name(resources, tasks, s, permille),
                   synth_text(resources, tasks, s, permille, 0)});
  }
  return out;
}

std::vector<Input> daemon_bases(std::uint64_t seed, int count) {
  std::vector<Input> out{{"paper_hem", paper_config(true)}};
  for (int i = 1; i < count; ++i) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i - 1);
    out.push_back({synth_name(4, 24, s, 250), synth_text(4, 24, s, 250, 0)});
  }
  return out;
}

void think(std::mt19937_64& rng) {
  const double ms = std::exponential_distribution<double>(1.0 / 15.0)(rng);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// ---------------------------------------------------------------------------

EditStream::EditStream(const std::vector<Input>& bases, std::uint64_t seed, int client,
                       int clients)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(client)) {
  for (const Input& in : bases) {
    Base b;
    b.lines = split_lines(in.text);
    int task_index = 0;
    for (std::size_t i = 0; i < b.lines.size(); ++i) {
      const std::string& line = b.lines[i];
      if (line.rfind("task ", 0) != 0) continue;
      const std::size_t at = line.find(" cet=");
      const std::size_t colon = line.find(':', at);
      if (at == std::string::npos || colon == std::string::npos) continue;
      const long lo = std::stol(line.substr(at + 5, colon - at - 5));
      const long hi = std::stol(line.substr(colon + 1));
      // Tiny execution times have no distinct smaller values to move to.
      if (hi >= 4 && task_index++ % clients == client) b.editable.push_back({i, lo, hi});
    }
    if (!b.editable.empty()) bases_.push_back(std::move(b));
    done_.push_back(in.text);
    sent_.insert(text_fingerprint(in.text));
  }
}

std::string EditStream::edit_once() {
  Base& b = bases_[std::uniform_int_distribution<std::size_t>(0, bases_.size() - 1)(rng_)];
  Editable& e = b.editable[std::uniform_int_distribution<std::size_t>(0, b.editable.size() - 1)(rng_)];
  // Scale between 8/16 and 16/16 of the base time: never above the base,
  // so an edited config stays as schedulable as the base it came from.
  int level = e.level;
  while (level == e.level) level = std::uniform_int_distribution<int>(8, 16)(rng_);
  e.level = level;
  const long lo = std::max(1L, e.lo * level / 16);
  const long hi = std::max(lo, e.hi * level / 16);
  std::string& line = b.lines[e.line];
  line = line.substr(0, line.find(" cet=")) + " cet=" + std::to_string(lo) + ":" +
         std::to_string(hi);
  return join_lines(b.lines);
}

std::string EditStream::next(bool& resubmit) {
  if (std::uniform_int_distribution<int>(0, 3)(rng_) == 0) {
    resubmit = true;
    return done_[std::uniform_int_distribution<std::size_t>(0, done_.size() - 1)(rng_)];
  }
  // A walk can land on a state it visited before; step again until the
  // bytes are new (the odds of 16 repeats in a row are negligible).
  std::string text = edit_once();
  for (int tries = 0; tries < 16 && sent_.count(text_fingerprint(text)) != 0; ++tries)
    text = edit_once();
  resubmit = !sent_.insert(text_fingerprint(text)).second;
  return text;
}

void EditStream::completed(std::string text) { done_.push_back(std::move(text)); }

}  // namespace bench
