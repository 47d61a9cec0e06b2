// Full-network walk-through: two CAN buses joined by a gateway, ten-plus
// hierarchically packed signal streams, analysed end to end.  Demonstrates
// the library at realistic scale and prints end-to-end latencies for the
// forwarded (two-hop) signals.
//
// Run:  ./build/examples/example_body_network_analysis

#include <iostream>

#include "hem/hem.hpp"
#include "scenarios/body_network.hpp"

int main() {
  using namespace hem;

  const auto report = scenarios::analyze_body_network();
  std::cout << "=== Body/powertrain network (" << report.tasks.size() << " tasks) ===\n"
            << report.format() << "\n";

  // Two-hop wheel-speed path: PT1 (powertrain CAN) -> gateway -> GW1
  // (body CAN) -> dashboard.  A path's latency bound sums its hops' WCRTs.
  const auto wcrt = [&](const char* task) { return report.task(task).wcrt; };
  std::cout << "wheel-speed end-to-end (PT_CAN -> GW -> BD_CAN -> dash): "
            << wcrt("PT1") + wcrt("gw_wheel") + wcrt("GW1") + wcrt("dash_wheel") << " ticks\n";

  // Temperature path adds two sampling delays: the pending signal waits for
  // PT2's periodic frame and again for GW1 at the gateway.
  const Time pt2_gap = report.task("PT2").activation->delta_plus(2);
  const Time gw1_gap = report.task("GW1").activation->delta_plus(2);
  std::cout << "temperature end-to-end incl. sampling (" << pt2_gap << " + " << gw1_gap
            << "): "
            << wcrt("PT2") + wcrt("gw_temp") + wcrt("GW1") + wcrt("dash_temp") + pt2_gap + gw1_gap
            << " ticks\n";

  // Utilisation summary per resource.
  std::cout << "\nPer-resource load:\n";
  for (const char* res : {"PT_CAN", "BD_CAN", "GW_CPU", "DASH_CPU", "BC_CPU"}) {
    double load = 0;
    for (const auto& t : report.tasks)
      if (t.resource == res) load += t.utilization;
    std::cout << "  " << res << ": " << static_cast<int>(load * 100) << "%\n";
  }
  return 0;
}
