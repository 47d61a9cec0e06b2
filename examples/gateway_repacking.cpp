// Two-hop stream hierarchy: a gateway ECU receives a frame from CAN-A,
// unpacks the signals, and repacks a subset of them into a new frame on
// CAN-B.  The hierarchical event models survive both hops: the final
// receivers still see per-signal activation bounds instead of the
// accumulated frame rates - the generalisation the paper's conclusion
// points to ("processing and communication on the combined as well as on
// the embedded individual streams").
//
// Run:  ./build/examples/example_gateway_repacking

#include <iostream>

#include "hem/hem.hpp"

int main() {
  using namespace hem;
  using cpa::Policy;

  cpa::System sys;
  const auto can_a = sys.add_resource({"CAN_A", Policy::kSpnpCan});
  const auto can_b = sys.add_resource({"CAN_B", Policy::kSpnpCan});
  const auto gw = sys.add_resource({"GW_CPU", Policy::kSppPreemptive});
  const auto ecu = sys.add_resource({"ECU_CPU", Policy::kSppPreemptive});

  // Hop 1: sensor signals packed into frame FA on CAN-A.
  const auto fa = sys.add_task({"FA", can_a, 1, sched::ExecutionTime(4)});
  const auto fa2 = sys.add_task({"FA2", can_a, 2, sched::ExecutionTime(3)});  // interferer
  sys.activate_packed(fa, {{StandardEventModel::periodic(200), SignalCoupling::kTriggering},
                           {StandardEventModel::periodic(600), SignalCoupling::kTriggering},
                           {StandardEventModel::periodic(1500), SignalCoupling::kPending}});
  sys.activate_external(fa2, StandardEventModel::periodic(500));

  // Gateway tasks: one unpacked handler per forwarded signal.
  const auto gw_fast = sys.add_task({"gw_fast", gw, 1, sched::ExecutionTime(5, 8)});
  const auto gw_slow = sys.add_task({"gw_slow", gw, 2, sched::ExecutionTime(6, 12)});
  sys.activate_unpacked(gw_fast, fa, 0);
  sys.activate_unpacked(gw_slow, fa, 2);

  // Hop 2: the gateway repacks the two forwarded streams into frame FB.
  const auto fb = sys.add_task({"FB", can_b, 1, sched::ExecutionTime(5)});
  sys.activate_packed(fb, {{gw_fast, SignalCoupling::kTriggering},
                           {gw_slow, SignalCoupling::kPending}});

  // Final receivers on the remote ECU.
  const auto rx_fast = sys.add_task({"rx_fast", ecu, 1, sched::ExecutionTime(10)});
  const auto rx_slow = sys.add_task({"rx_slow", ecu, 2, sched::ExecutionTime(30)});
  sys.activate_unpacked(rx_fast, fb, 0);
  sys.activate_unpacked(rx_slow, fb, 1);

  const auto report = cpa::CpaEngine(sys).run();
  std::cout << "=== Two-hop gateway system ===\n" << report.format() << "\n";

  std::cout << "Activation rates at the final ECU over 10000 ticks:\n";
  std::cout << "  rx_fast (from 200-tick sensor): eta+ = "
            << report.task("rx_fast").activation->eta_plus(10'000) << "\n";
  std::cout << "  rx_slow (from 1500-tick pending sensor): eta+ = "
            << report.task("rx_slow").activation->eta_plus(10'000) << "\n";
  std::cout << "  FB total frame arrivals: eta+ = "
            << report.task("FB").output->eta_plus(10'000) << "\n\n";

  // End-to-end latency: the sum of the per-hop WCRTs, plus, on the slow
  // path, the pending signal's sampling delay at the gateway repacking.
  const auto wcrt = [&](const char* task) { return report.task(task).wcrt; };
  std::cout << "Fast path FA -> gw_fast -> FB worst-case latency: "
            << wcrt("FA") + wcrt("gw_fast") + wcrt("FB") + wcrt("rx_fast") << "\n";
  const Time sampling = report.task("FB").activation->delta_plus(2);
  std::cout << "Slow path latency incl. repacking sampling delay ("
            << format_time(sampling) << "): "
            << wcrt("FA") + wcrt("gw_slow") + wcrt("FB") + sampling + wcrt("rx_slow") << "\n";
  return 0;
}
