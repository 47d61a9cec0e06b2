// Ablation A2: bound tightness.  Runs the discrete-event simulator on the
// paper system under several stimulus modes and compares observed WCRTs
// with the analytic flat and HEM bounds.  The simulator is an independent
// implementation, so "observed <= HEM <= flat" is a live soundness and
// tightness demonstration.

#include <cstdio>

#include "scenarios/paper_system.hpp"
#include "sim/system_simulator.hpp"

namespace {

hem::sim::SystemSimResult simulate_paper(hem::sim::GenMode mode, std::uint64_t seed) {
  hem::sim::SystemSimulator::Options opts;
  opts.horizon = 400'000;
  opts.mode = mode;
  opts.seed = seed;
  return hem::sim::SystemSimulator(
             hem::scenarios::build_paper_system({}, /*hierarchical=*/true), opts)
      .run();
}

}  // namespace

int main() {
  using namespace hem;

  const auto analysis = scenarios::analyze_paper_system();

  struct ModeCase {
    const char* name;
    sim::GenMode mode;
    std::uint64_t seed;
  };
  const ModeCase cases[] = {
      {"nominal (in phase)", sim::GenMode::kNominal, 1},
      {"earliest (burst)", sim::GenMode::kEarliest, 1},
      {"random seed 1", sim::GenMode::kRandom, 1},
      {"random seed 7", sim::GenMode::kRandom, 7},
      {"random seed 42", sim::GenMode::kRandom, 42},
  };

  std::puts("=== Ablation A2: observed WCRT vs analytic bounds (paper system) ===");
  std::printf("%-22s %6s %6s %6s\n", "stimulus", "T1", "T2", "T3");
  for (const auto& c : cases) {
    const auto res = simulate_paper(c.mode, c.seed);
    std::printf("%-22s %6lld %6lld %6lld\n", c.name,
                static_cast<long long>(res.tasks.at("T1").wcrt),
                static_cast<long long>(res.tasks.at("T2").wcrt),
                static_cast<long long>(res.tasks.at("T3").wcrt));
  }
  std::printf("%-22s %6lld %6lld %6lld\n", "HEM bound",
              static_cast<long long>(analysis.hem.task("T1").wcrt),
              static_cast<long long>(analysis.hem.task("T2").wcrt),
              static_cast<long long>(analysis.hem.task("T3").wcrt));
  std::printf("%-22s %6lld %6lld %6lld\n", "flat bound",
              static_cast<long long>(analysis.flat.task("T1").wcrt),
              static_cast<long long>(analysis.flat.task("T2").wcrt),
              static_cast<long long>(analysis.flat.task("T3").wcrt));

  std::puts("\nObserved activation counts over the run (HEM predicts per-signal");
  std::puts("rates; flat would charge the total frame rate to every task):");
  const auto res = simulate_paper(sim::GenMode::kRandom, 1);
  std::printf("frames F1: %zu, T1: %zu, T2: %zu, T3: %zu activations\n",
              res.tasks.at("F1").completions.size(), res.tasks.at("T1").activations.size(),
              res.tasks.at("T2").activations.size(), res.tasks.at("T3").activations.size());
  return 0;
}
