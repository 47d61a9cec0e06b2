#pragma once

/// \file system_simulator.hpp
/// Discrete-event simulation of an arbitrary cpa::System: every resource
/// becomes one ResourceSim under its own policy (SPP, CAN, round robin,
/// TDMA, FlexRay static, EDF), packed activations get COM-layer
/// register/latch semantics, and activation edges (task outputs, OR/AND
/// junctions, unpack deliveries) are wired as completion callbacks.
///
/// This closes the validation loop at the SYSTEM level: the same System
/// object analysed by CpaEngine can be executed, and every observed
/// response time must stay within the analytic worst case
/// (tests/integration/system_sim_test.cpp).
///
/// COM semantics (the paper's section 4): a source event writes its
/// signal's register and marks it fresh; a triggering signal (and the send
/// timer) additionally requests a frame transmission; when the frame's job
/// first gets its resource the registers are latched and the fresh flags
/// cleared; when it completes, the receivers of every signal that was
/// fresh in the latched snapshot are activated.
///
/// Unsupported (run() throws std::invalid_argument): external stimuli,
/// packed sources or send timers that are not StandardEventModels - the
/// simulator must generate traces that conform to them.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/system.hpp"
#include "sim/resource_sim.hpp"
#include "sim/source_generator.hpp"

namespace hem::sim {

struct SystemSimResult {
  std::map<std::string, TaskStats> tasks;
};

class SystemSimulator {
 public:
  /// Fault-injection knobs applied to every external stimulus (sources,
  /// packed data inputs, COM timers).  Dropping events only removes load, so
  /// analytic bounds must still dominate the observed responses; extra
  /// jitter and burst replication are adversarial (they inject load beyond
  /// the declared event models) and are meant for exercising the degraded
  /// fallback bounds, which are infinite or envelope-based and therefore
  /// still dominate.
  struct FaultInjection {
    double drop_rate = 0.0;  ///< probability in [0,1] of dropping an arrival
    Time extra_jitter = 0;   ///< uniform extra delay in [0, extra_jitter] per arrival
    Count burst = 1;         ///< replicate each surviving arrival this many times
  };

  struct Options {
    Time horizon = 500'000;
    GenMode mode = GenMode::kRandom;
    std::uint64_t seed = 1;
    bool worst_case_exec = true;
    FaultInjection faults;
  };

  SystemSimulator(const cpa::System& system, Options options);

  [[nodiscard]] SystemSimResult run();

 private:
  const cpa::System& system_;
  Options options_;
};

}  // namespace hem::sim
