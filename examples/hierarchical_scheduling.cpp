// Hierarchical scheduling meets hierarchical event streams: two periodic
// resource servers (Shin/Lee) share a CPU; the tasks inside one server are
// activated by signals unpacked from a CAN frame.  This combines the
// paper's stream hierarchy with the local scheduling hierarchies it cites
// as prior work ([8][10]).
//
// The frame packs three signals: two triggering (250 / 400) and one slow
// pending status signal (1000) that feeds a HIGH-priority safety handler
// inside the server.  With flat streams the handler must be charged at the
// total frame rate (~1/154), which overloads the server's 40% budget; the
// unpacked inner streams keep the true per-signal rates and the server
// remains comfortably schedulable.
//
// Run:  ./build/examples/example_hierarchical_scheduling

#include <iostream>

#include "hem/hem.hpp"

int main() {
  using namespace hem;

  // --- Stream hierarchy: three signals packed into one frame ---------------
  const auto ctrl_cmd = StandardEventModel::periodic(250);
  const auto aux_cmd = StandardEventModel::periodic(400);
  const auto status = StandardEventModel::periodic(1'000);
  const auto hem_in = pack({{ctrl_cmd, SignalCoupling::kTriggering},
                            {aux_cmd, SignalCoupling::kTriggering},
                            {status, SignalCoupling::kPending}});

  // Bus transmission: one frame, C = [4, 4], alone on the bus.
  sched::LocalAnalysis bus(
      sched::Policy::kSpnpCan,
      {sched::TaskParams{"frame", 1, sched::ExecutionTime(4), hem_in->outer()}});
  const auto frame_rt = bus.analyze(0);
  const auto hem_out = hem_in->after_response(frame_rt.bcrt, frame_rt.wcrt);
  std::cout << "Frame response on the bus: [" << frame_rt.bcrt << ":" << frame_rt.wcrt
            << "]\n";

  // --- Scheduling hierarchy: two servers on the receiving CPU -------------
  sched::LocalAnalysis parent(sched::Policy::kSppPreemptive,
                              {
                                  sched::TaskParams{"server_ctrl", 1, sched::ExecutionTime(40),
                                                    StandardEventModel::periodic(100)},
                                  sched::TaskParams{"server_misc", 2, sched::ExecutionTime(30),
                                                    StandardEventModel::periodic(100)},
                              });
  for (const auto& r : parent.analyze_all())
    std::cout << r.name << " on CPU: R+ = " << r.wcrt << " (budget window 100)\n";

  // Child level inside the (Pi=100, Theta=40) control server:
  //   rx_status (prio 1, C=60): safety handler for the slow pending signal,
  //   rx_ctrl   (prio 2, C=10): control loop on the fast signal,
  //   rx_aux    (prio 3, C=5).
  const auto ctrl_server = std::make_shared<sched::PeriodicServer>(100, 40);
  const auto make_tasks = [&](ModelPtr act_status, ModelPtr act_ctrl, ModelPtr act_aux) {
    return std::vector<sched::TaskParams>{
        {"rx_status", 1, sched::ExecutionTime(60), std::move(act_status)},
        {"rx_ctrl", 2, sched::ExecutionTime(10), std::move(act_ctrl)},
        {"rx_aux", 3, sched::ExecutionTime(5), std::move(act_aux)},
    };
  };

  std::cout << "\n=== Inside the server, HEM (unpacked per-signal streams) ===\n";
  sched::LocalAnalysis child(
      ctrl_server, make_tasks(hem_out->inner(2), hem_out->inner(0), hem_out->inner(1)));
  for (const auto& r : child.analyze_all())
    std::cout << r.name << ": R+ = " << r.wcrt << ", busy period " << r.busy_period << "\n";

  // --- What flat streams would have claimed --------------------------------
  const auto flat = std::make_shared<OutputModel>(hem_in->outer(), frame_rt.bcrt,
                                                  frame_rt.wcrt);
  std::cout << "\n=== Same receivers with flat (total-frame) activation ===\n";
  try {
    sched::LocalAnalysis flat_child(ctrl_server, make_tasks(flat, flat, flat));
    for (const auto& r : flat_child.analyze_all())
      std::cout << r.name << ": R+ = " << r.wcrt << "\n";
  } catch (const AnalysisError& e) {
    std::cout << "ANALYSIS FAILS: " << e.what() << "\n";
    std::cout << "\nThe flat abstraction charges the 60-tick safety handler at the\n"
                 "total frame rate (~1/154), overloading the server's 40% budget -\n"
                 "although the real per-signal demand fits easily.  The unpacked\n"
                 "hierarchical streams above prove the system schedulable.\n";
  }
  return 0;
}
