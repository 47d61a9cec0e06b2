// Switched-Ethernet backbone with strict-priority egress queues - the
// system class the HEM authors moved on to after CAN (formal Ethernet
// worst-case analyses).  Each switch egress port is a non-preemptive
// static-priority resource (a frame in transmission cannot be aborted);
// store-and-forward hops chain via output event streams.
//
// Flows over a two-switch backbone (100 Mbit/s, 1 tick = 1 ns):
//   control  : 100-byte frames every 1 ms, high priority, 2 hops
//   audio    : 400-byte frames every 500 us, mid priority, 2 hops
//   video    : 1500-byte frames every 250 us, low priority, first hop only
//
// Run:  ./build/examples/example_ethernet_backbone

#include <iostream>

#include "hem/hem.hpp"

int main() {
  using namespace hem;
  using cpa::Policy;

  const Time ns_per_byte = 80;  // 100 Mbit/s
  const auto ctrl_time = com::ethernet_frame_time(100, ns_per_byte);
  const auto audio_time = com::ethernet_frame_time(400, ns_per_byte);
  const auto video_time = com::ethernet_frame_time(1500, ns_per_byte);

  cpa::System sys;
  const auto port1 = sys.add_resource({"sw1_egress", Policy::kSpnpCan});
  const auto port2 = sys.add_resource({"sw2_egress", Policy::kSpnpCan});

  // Hop 1 on switch 1.
  const auto ctrl1 = sys.add_task({"ctrl@sw1", port1, 1, ctrl_time});
  const auto audio1 = sys.add_task({"audio@sw1", port1, 2, audio_time});
  const auto video1 = sys.add_task({"video@sw1", port1, 3, video_time});
  sys.activate_external(ctrl1, StandardEventModel::periodic(1'000'000));
  sys.activate_external(audio1, StandardEventModel::periodic(500'000));
  sys.activate_external(video1, StandardEventModel::periodic(250'000));

  // Hop 2 on switch 2 (video exits after switch 1).
  const auto ctrl2 = sys.add_task({"ctrl@sw2", port2, 1, ctrl_time});
  const auto audio2 = sys.add_task({"audio@sw2", port2, 2, audio_time});
  sys.activate_by(ctrl2, {ctrl1});
  sys.activate_by(audio2, {audio1});

  const auto report = cpa::CpaEngine(sys).run();
  std::cout << "=== Two-switch strict-priority Ethernet backbone ===\n"
            << report.format() << "\n";

  // End-to-end latency of a store-and-forward chain: the sum of its hops.
  const auto wcrt = [&](const char* task) { return report.task(task).wcrt; };
  std::cout << "control end-to-end latency:  " << wcrt("ctrl@sw1") + wcrt("ctrl@sw2")
            << " ns\n";
  std::cout << "audio end-to-end latency:    " << wcrt("audio@sw1") + wcrt("audio@sw2")
            << " ns\n";
  std::cout << "video hop latency:           " << report.task("video@sw1").wcrt << " ns\n\n";

  std::cout << "Even the highest-priority control frame waits for one full\n"
               "video frame per hop (non-preemptive blocking: "
            << video_time.worst << " ns).\n";

  // What a shaper buys on the AUDIO class: smooth its bursts so the
  // control class sees bounded interference even if audio jitters upstream.
  const auto bursty_audio = StandardEventModel::periodic_with_jitter(500'000, 900'000);
  const auto shaped_audio =
      std::make_shared<MinDistanceShaper>(bursty_audio, 450'000, Count{1} << 16);
  std::cout << "\nShaper on a bursty audio source: max 2 back-to-back frames become\n"
               "spaced >= 450 us (added delay bound "
            << shaped_audio->delay_bound() << " ns); shaping the lowest class cannot\n"
               "reduce the blocking term - only smaller frames (or preemption) can.\n";
  return 0;
}
