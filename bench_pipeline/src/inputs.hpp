#pragma once

// Seeded config generation.  The program under test only ever sees the
// config text made here; the same seed always gives the same text.

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "harness.hpp"

namespace bench {

/// The paper's evaluation system (Fig. 2) as config text, HEM or flat mode.
[[nodiscard]] std::string paper_config(bool hierarchical);

/// `count` wide synth systems (100 resources / 1000 tasks), synth seeds
/// seed..seed+count-1.  `hierarchical` adds packed COM frames (500 per
/// mille of bus tasks) and round-robin CPUs (50 per mille).
[[nodiscard]] std::vector<Input> wide_inputs(std::uint64_t seed, int count, bool hierarchical);

/// `count` small fleet configs: 2..8 resources, 6..56 tasks, every third
/// with packed frames, synth seeds from `seed`.
[[nodiscard]] std::vector<Input> fleet_inputs(std::uint64_t seed, int count);

/// daemon_edit base configs: the paper system (HEM mode) plus `count - 1`
/// synth systems of 4 resources / 24 tasks with packed frames.
[[nodiscard]] std::vector<Input> daemon_bases(std::uint64_t seed, int count);

/// Sleep one think time, exponential with mean 15 ms, drawn from `rng`.
/// Daemon clients pause like this between a reply and their next request:
/// without it they phase-lock with the daemon's 25 ms dispatch poll, and a
/// whole run settles into a fast or a slow mode (a 5 ms mean still let a
/// run started right after fleet_batch settle into the slow one).
void think(std::mt19937_64& rng);

/// One daemon client's request stream.  Each request either edits one
/// task's execution time in a base config (new bytes; edits accumulate per
/// base) or resubmits a config this client already got a result for.
/// Clients edit disjoint task sets, so two clients never send the same
/// edited bytes.  The stream depends only on (seed, client).
class EditStream {
 public:
  EditStream(const std::vector<Input>& bases, std::uint64_t seed, int client, int clients);

  /// Next config text; `resubmit` tells whether the bytes were sent before.
  [[nodiscard]] std::string next(bool& resubmit);

  /// Make `text` eligible for resubmission (its result came back `done`).
  void completed(std::string text);

 private:
  struct Editable {
    std::size_t line = 0;  ///< index of the task statement
    long lo = 0;           ///< base best-case execution time
    long hi = 0;           ///< base worst-case execution time
    int level = 16;        ///< current scale in 16ths of the base time
  };
  struct Base {
    std::vector<std::string> lines;
    std::vector<Editable> editable;
  };

  [[nodiscard]] std::string edit_once();

  std::mt19937_64 rng_;
  std::vector<Base> bases_;
  std::vector<std::string> done_;
  std::unordered_set<std::uint64_t> sent_;
};

}  // namespace bench
