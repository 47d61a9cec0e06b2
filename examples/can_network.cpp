// A larger CAN network example: three ECUs exchange eight signals over one
// CAN bus in four frames (direct, periodic and mixed types), with CAN
// transmission times derived from payload sizes and bit rate.  Shows the
// com:: API (frames, signals, packing) together with the system engine.
//
// Run:  ./build/examples/example_can_network

#include <iostream>

#include "hem/hem.hpp"

int main() {
  using namespace hem;
  using com::Frame;
  using com::FrameType;
  using com::Signal;
  using com::SignalKind;

  // 500 kbit/s CAN, 1 tick = 1 us -> 2 ticks per bit.
  const Time ticks_per_bit = 2;

  // --- Signals produced on ECU A and ECU B --------------------------------
  const auto wheel_speed = StandardEventModel::periodic(5'000);        // 5 ms
  const auto steering = StandardEventModel::periodic_with_jitter(10'000, 1'000);
  const auto brake_evt = StandardEventModel::sporadic(20'000, 0, 20'000);
  const auto temp = StandardEventModel::periodic(100'000);             // slow telemetry
  const auto diag = StandardEventModel::periodic(50'000);

  // --- Frames --------------------------------------------------------------
  Frame chassis;  // direct, high priority: safety signals trigger instantly
  chassis.name = "chassis";
  chassis.type = FrameType::kDirect;
  chassis.priority = 1;
  chassis.signals = {
      Signal{"wheel_speed", wheel_speed, SignalKind::kTriggering, 2, "ctrl", ""},
      Signal{"brake_evt", brake_evt, SignalKind::kTriggering, 1, "ctrl", ""},
  };
  chassis.transmission_time = com::can_frame_time(chassis.payload_bytes(), ticks_per_bit);

  Frame steering_f;  // mixed: periodic refresh plus event triggering
  steering_f.name = "steering";
  steering_f.type = FrameType::kMixed;
  steering_f.period = 20'000;
  steering_f.priority = 2;
  steering_f.signals = {
      Signal{"steering", steering, SignalKind::kTriggering, 2, "ctrl", ""},
  };
  steering_f.transmission_time =
      com::can_frame_time(steering_f.payload_bytes(), ticks_per_bit);

  Frame telemetry;  // periodic: pending signals ride the timer
  telemetry.name = "telemetry";
  telemetry.type = FrameType::kPeriodic;
  telemetry.period = 50'000;
  telemetry.priority = 3;
  telemetry.signals = {
      Signal{"temp", temp, SignalKind::kPending, 2, "logger", ""},
      Signal{"diag", diag, SignalKind::kPending, 4, "logger", ""},
  };
  telemetry.transmission_time =
      com::can_frame_time(telemetry.payload_bytes(), ticks_per_bit);

  com::ComLayer layer({chassis, steering_f, telemetry});

  // --- Bus analysis --------------------------------------------------------
  std::vector<sched::TaskParams> bus_frames;
  for (std::size_t i = 0; i < layer.frames().size(); ++i) {
    bus_frames.push_back(sched::TaskParams{layer.frame(i).name, layer.frame(i).priority,
                                           *layer.frame(i).transmission_time,
                                           layer.activation_model(i)});
  }
  sched::LocalAnalysis bus(sched::Policy::kSpnpCan, bus_frames);
  const auto bus_results = bus.analyze_all();

  std::cout << "=== CAN bus (500 kbit/s) ===\n";
  for (std::size_t i = 0; i < bus_results.size(); ++i) {
    std::cout << bus_results[i].name << ": payload " << layer.frame(i).payload_bytes()
              << " B, C = [" << layer.frame(i).transmission_time->best << ":"
              << layer.frame(i).transmission_time->worst << "] us, R = ["
              << bus_results[i].bcrt << ":" << bus_results[i].wcrt << "] us\n";
  }

  // --- Receiver-side comparison: flat vs unpacked --------------------------
  std::cout << "\n=== Receiver activation bounds over 100 ms ===\n";
  for (std::size_t i = 0; i < layer.frames().size(); ++i) {
    const auto hem = layer.transmitted(i, bus_results[i].bcrt, bus_results[i].wcrt);
    const auto flat = layer.flat_receiver_model(i, bus_results[i].bcrt, bus_results[i].wcrt);
    std::cout << layer.frame(i).name << ": total frame arrivals eta+(100ms) = "
              << flat->eta_plus(100'000) << "\n";
    for (std::size_t s = 0; s < layer.frame(i).signals.size(); ++s) {
      std::cout << "    " << layer.frame(i).signals[s].name << " -> "
                << layer.frame(i).signals[s].destination
                << ": unpacked eta+(100ms) = " << hem->inner(s)->eta_plus(100'000) << "\n";
    }
  }

  std::cout << "\nThe pending telemetry signals show the largest gap between the flat\n"
               "and the unpacked bound - exactly the effect the HEM paper exploits.\n";
  return 0;
}
