#pragma once

/// \file synth.hpp
/// Seeded wide-system synthesiser for scaling benchmarks and stress tests:
/// hundreds of resources, thousands of tasks, layered gateway chains.
///
/// The generator produces systems shaped like large automotive/industrial
/// networks — the regime the paper's compositional approach targets and
/// the one where parallel analysis has to pay off:
///
///   * resources are split into `layers` contiguous blocks; every fourth
///     resource is a CAN bus (static-priority non-preemptive), the rest
///     are SPP CPUs;
///   * layer-0 tasks are stimulated by external periodic-with-jitter
///     sources; deeper-layer tasks are, with ~50% probability, activated
///     by the output of one (occasionally the OR of two) task(s) on the
///     previous layer — gateway chains that force multiple global
///     iterations of output-stream propagation;
///   * per-resource utilisation is split over its tasks with the classic
///     UUniFast algorithm, and worst-case execution times are sized from
///     each task's effective activation period so the target utilisation
///     holds along chains.
///
/// Determinism: all randomness comes from one std::mt19937_64 (exactly
/// specified by the standard) consumed with integer arithmetic; the only
/// floating-point steps are UUniFast's pow() and the final CET scaling.
/// Same seed + same build => identical System, and therefore (engine
/// guarantee) bit-identical analysis reports for every job count.

#include <cstdint>
#include <string>

#include "model/sensitivity.hpp"
#include "model/system.hpp"

namespace hem::scenarios {

struct SynthParams {
  int resources = 100;       ///< >= 1
  int tasks = 1000;          ///< >= resources (every resource gets >= 1 task)
  std::uint64_t seed = 1;    ///< generator seed; same seed -> same system
  double utilization = 0.5;  ///< per-resource utilisation target, (0, 1)
  int layers = 4;            ///< gateway-chain depth (capped to `resources`)
  Time min_period = 100;     ///< shortest external source period
  Time max_period = 100000;  ///< longest external source period
  /// Per-mille of CAN-bus tasks turned into packed COM frames (external
  /// trig/pend signal sources plus an optional periodic send timer), with
  /// some deeper CPU tasks activated by unpacking their inner streams —
  /// the paper's hierarchical regime.  0 (the default) draws nothing from
  /// the RNG, so existing seeds keep producing byte-identical systems.
  int packed_permille = 0;
  /// Per-mille of CPU resources re-policied as TDMA / round-robin (time-
  /// driven arbitration alongside the priority-driven default).  Selection
  /// is pure modulo arithmetic over the resource index — zero RNG draws,
  /// so any (tdma, rr) mix leaves every other draw of the same seed
  /// untouched.  Round-robin slots fit their task's worst-case execution
  /// time; a TDMA slot's share of the cycle exceeds its task's utilisation
  /// and the slots fit the cycle, which keeps the time-driven resources
  /// schedulable at the same utilisation target.
  int tdma_permille = 0;
  int rr_permille = 0;
  /// Per-mille of CPU resources re-policied as EDF, selected by the same
  /// modulo walk after the TDMA and round-robin shares.  Deadlines are
  /// implicit: the period each task's CET is sized against.  Zero RNG
  /// draws, like the time-driven mix.
  int edf_permille = 0;
};

/// Build the synthetic system.  Throws std::invalid_argument on degenerate
/// parameters (resources < 1, tasks < resources, utilisation outside (0,1)).
[[nodiscard]] cpa::System build_synth_system(const SynthParams& params = {});

/// Serialise a System (plus optional deadline constraints) to the textual
/// `.hemcpa` format understood by textual_config.hpp.  External event
/// models become named `source` statements (shared nodes are emitted once
/// and referenced by name); pack timers become `timer=<period>` arguments.
/// Parsing the result reconstructs a system whose analysis report is
/// bit-identical to the original's (tests/integration/synth_roundtrip).
///
/// Throws std::invalid_argument when the system cannot be expressed in the
/// format: external model kinds without a source-statement form (traces,
/// arbitrary delta curves), non-periodic pack timers, or entity names that
/// are not single whitespace-free tokens.
[[nodiscard]] std::string to_config_text(const cpa::System& system,
                                         const cpa::DeadlineMap& deadlines = {});

}  // namespace hem::scenarios
