// The paper's evaluation system (Fig. 2): four sources, an AUTOSAR-style
// COM layer packing signals into two CAN frames, and three receiver tasks
// on an SPP-scheduled CPU.  Runs BOTH analyses - flat event streams vs.
// hierarchical event models - and prints the paper's Table 3 and Figure 4
// data, then validates the HEM bounds against a discrete-event simulation.
//
// Run:  ./build/examples/example_automotive_gateway

#include <cstdio>
#include <iostream>

#include "hem/hem.hpp"
#include "scenarios/paper_system.hpp"
#include "sim/system_simulator.hpp"

int main() {
  using namespace hem;

  const auto results = scenarios::analyze_paper_system();

  std::cout << "=== Flat analysis (classic event streams) ===\n"
            << results.flat.format() << "\n";
  std::cout << "=== HEM analysis (hierarchical event models) ===\n"
            << results.hem.format() << "\n";

  std::cout << "=== Table 3: WCRT on CPU1, flat vs HEM ===\n";
  std::printf("%-6s %-6s %-6s %10s %10s %8s\n", "Task", "CET", "Prio", "R+ flat", "R+ HEM",
              "Red.");
  for (const auto& row : results.table3) {
    std::printf("%-6s %-6lld %-6s %10lld %10lld %7.1f%%\n", row.task.c_str(),
                static_cast<long long>(row.cet), row.priority.c_str(),
                static_cast<long long>(row.wcrt_flat), static_cast<long long>(row.wcrt_hem),
                row.reduction_percent);
  }

  std::cout << "\n=== Figure 4: eta+ of F1 output vs unpacked T1/T2/T3 inputs ===\n";
  std::vector<EtaSeries> series;
  series.push_back(sample_eta_plus(*results.f1_total, "F1_total", 4000, 250));
  const char* names[] = {"T1", "T2", "T3"};
  for (std::size_t i = 0; i < 3; ++i)
    series.push_back(sample_eta_plus(*results.f1_unpacked[i], names[i], 4000, 250));
  std::cout << format_eta_table(series);

  std::cout << "\n=== Simulation cross-check (worst-case burst mode) ===\n";
  sim::SystemSimulator::Options opts;
  opts.horizon = 200'000;
  opts.mode = sim::GenMode::kEarliest;
  const auto simres =
      sim::SystemSimulator(scenarios::build_paper_system({}, /*hierarchical=*/true), opts).run();
  std::printf("%-6s %12s %12s\n", "Task", "sim WCRT", "HEM bound");
  for (const char* t : {"T1", "T2", "T3"}) {
    std::printf("%-6s %12lld %12lld\n", t,
                static_cast<long long>(simres.tasks.at(t).wcrt),
                static_cast<long long>(results.hem.task(t).wcrt));
  }
  return 0;
}
