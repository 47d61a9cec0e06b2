// A larger CAN network example: five signals travel over one CAN bus in
// three frames (direct, mixed and periodic), with CAN transmission times
// derived from payload sizes and bit rate.  Each frame is a bus task
// activated by the pack constructor of its signals (the COM layer of the
// paper's section 4: triggering signals and the send timer trigger the
// frame, pending signals wait for the next one); the system engine
// analyses the bus and unpacks the per-signal streams.
//
// Run:  ./build/examples/example_can_network

#include <iostream>
#include <vector>

#include "hem/hem.hpp"

int main() {
  using namespace hem;

  // 500 kbit/s CAN, 1 tick = 1 us -> 2 ticks per bit.
  const Time ticks_per_bit = 2;

  // --- Signals produced on ECU A and ECU B --------------------------------
  const auto wheel_speed = StandardEventModel::periodic(5'000);        // 5 ms
  const auto steering = StandardEventModel::periodic_with_jitter(10'000, 1'000);
  const auto brake_evt = StandardEventModel::sporadic(20'000, 0, 20'000);
  const auto temp = StandardEventModel::periodic(100'000);             // slow telemetry
  const auto diag = StandardEventModel::periodic(50'000);

  // --- Frames --------------------------------------------------------------
  struct Signal {
    const char* name;
    ModelPtr source;
    SignalCoupling coupling;
    int width_bytes;          ///< register width; the frame payload sums them
    const char* destination;  ///< receiver task (informational)
  };
  struct Frame {
    const char* name;
    int priority;    ///< CAN identifier order: smaller = higher
    ModelPtr timer;  ///< periodic send timer; null for direct frames
    std::vector<Signal> signals;
  };
  const auto kTrig = SignalCoupling::kTriggering;
  const auto kPend = SignalCoupling::kPending;
  const std::vector<Frame> frames = {
      // direct, high priority: safety signals trigger instantly
      {"chassis", 1, nullptr,
       {{"wheel_speed", wheel_speed, kTrig, 2, "ctrl"}, {"brake_evt", brake_evt, kTrig, 1, "ctrl"}}},
      // mixed: periodic refresh plus event triggering
      {"steering", 2, StandardEventModel::periodic(20'000),
       {{"steering", steering, kTrig, 2, "ctrl"}}},
      // periodic: pending signals ride the timer
      {"telemetry", 3, StandardEventModel::periodic(50'000),
       {{"temp", temp, kPend, 2, "logger"}, {"diag", diag, kPend, 4, "logger"}}},
  };

  cpa::System sys;
  const auto can = sys.add_resource({"can", cpa::Policy::kSpnpCan});
  std::vector<int> payload;
  for (const Frame& f : frames) {
    int bytes = 0;
    std::vector<cpa::PackedActivation::Input> inputs;
    for (const Signal& s : f.signals) {
      bytes += s.width_bytes;
      inputs.push_back({s.source, s.coupling});
    }
    const auto task =
        sys.add_task({f.name, can, f.priority, com::can_frame_time(bytes, ticks_per_bit)});
    sys.activate_packed(task, std::move(inputs), f.timer);
    payload.push_back(bytes);
  }

  // --- Bus analysis --------------------------------------------------------
  const auto report = cpa::CpaEngine(sys).run();

  std::cout << "=== CAN bus (500 kbit/s) ===\n";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& r = report.task(frames[i].name);
    const auto& cet = sys.tasks()[i].cet;
    std::cout << r.name << ": payload " << payload[i] << " B, C = [" << cet.best << ":"
              << cet.worst << "] us, R = [" << r.bcrt << ":" << r.wcrt << "] us\n";
  }

  // --- Receiver-side comparison: flat vs unpacked --------------------------
  // The flat view activates every receiver of a frame on each frame
  // arrival (the frame task's output stream); the unpacked view sees only
  // the frames that carry a new value of its own signal.
  std::cout << "\n=== Receiver activation bounds over 100 ms ===\n";
  for (const Frame& f : frames) {
    const auto& r = report.task(f.name);
    std::cout << f.name << ": total frame arrivals eta+(100ms) = "
              << r.output->eta_plus(100'000) << "\n";
    for (std::size_t s = 0; s < f.signals.size(); ++s) {
      std::cout << "    " << f.signals[s].name << " -> " << f.signals[s].destination
                << ": unpacked eta+(100ms) = " << r.hem_output->inner(s)->eta_plus(100'000)
                << "\n";
    }
  }

  std::cout << "\nThe pending telemetry signals show the largest gap between the flat\n"
               "and the unpacked bound - exactly the effect the HEM paper exploits.\n";
  return 0;
}
