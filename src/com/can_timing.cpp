#include "com/can_timing.hpp"

#include <algorithm>
#include <stdexcept>

namespace hem::com {

namespace {

void check_payload(int payload_bytes) {
  if (payload_bytes < 0 || payload_bytes > 8)
    throw std::invalid_argument("CAN payload must be 0..8 bytes");
}

}  // namespace

Time can_frame_bits_best(int payload_bytes, CanIdFormat format) {
  check_payload(payload_bytes);
  const Time overhead = format == CanIdFormat::kStandard11 ? 47 : 67;
  return overhead + 8 * payload_bytes;
}

Time can_frame_bits_worst(int payload_bytes, CanIdFormat format) {
  check_payload(payload_bytes);
  if (format == CanIdFormat::kStandard11) return 55 + 10 * payload_bytes;
  return 80 + 10 * payload_bytes;
}

sched::ExecutionTime can_frame_time(int payload_bytes, Time ticks_per_bit, CanIdFormat format) {
  if (ticks_per_bit <= 0) throw std::invalid_argument("ticks_per_bit must be positive");
  return sched::ExecutionTime(can_frame_bits_best(payload_bytes, format) * ticks_per_bit,
                              can_frame_bits_worst(payload_bytes, format) * ticks_per_bit);
}

sched::ExecutionTime ethernet_frame_time(int payload_bytes, Time ticks_per_byte) {
  if (payload_bytes < 0 || payload_bytes > 1500)
    throw std::invalid_argument("Ethernet payload must be 0..1500 bytes");
  if (ticks_per_byte <= 0) throw std::invalid_argument("ticks_per_byte must be positive");
  const Time padded = std::max<Time>(payload_bytes, 46);
  const Time wire_bytes = 8 + 14 + padded + 4 + 12;
  return sched::ExecutionTime(wire_bytes * ticks_per_byte);
}

}  // namespace hem::com
