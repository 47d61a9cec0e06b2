#pragma once

/// \file can_timing.hpp
/// CAN frame transmission-time helpers.
///
/// A CAN data frame with an s-byte payload occupies, excluding/including
/// worst-case bit stuffing:
///
///   11-bit identifier:  best 47 + 8 s bits,  worst 55 + 10 s bits
///   29-bit identifier:  best 67 + 8 s bits,  worst 80 + 10 s bits
///
/// (the classic Tindell/Davis accounting: 34 resp. 54 control bits plus the
/// payload are subject to stuffing, 13 bits of EOF/interframe space are
/// not).  The helpers convert a payload size and a bit time into the
/// ExecutionTime interval used by the bus analysis.

#include "sched/busy_window.hpp"

namespace hem::com {

enum class CanIdFormat { kStandard11, kExtended29 };

/// Transmission time interval [C-, C+] in ticks for a payload of
/// `payload_bytes` (0..8) at `ticks_per_bit` ticks per bit.
[[nodiscard]] sched::ExecutionTime can_frame_time(int payload_bytes, Time ticks_per_bit,
                                                  CanIdFormat format = CanIdFormat::kStandard11);

/// Worst-case frame length in bits (including stuffing).
[[nodiscard]] Time can_frame_bits_worst(int payload_bytes,
                                        CanIdFormat format = CanIdFormat::kStandard11);

/// Best-case frame length in bits (no stuffing).
[[nodiscard]] Time can_frame_bits_best(int payload_bytes,
                                       CanIdFormat format = CanIdFormat::kStandard11);

/// Switched-Ethernet frame transmission time on one link: preamble/SFD (8)
/// + header (14) + payload (padded to 46..1500) + FCS (4) + inter-frame
/// gap (12), at `ticks_per_byte` (e.g. 100 Mbit/s with 1 us ticks ->
/// ticks_per_byte = 8 bits / 100 Mbit/s = 0.08 us: pass scaled ticks).
/// Deterministic: best == worst.
[[nodiscard]] sched::ExecutionTime ethernet_frame_time(int payload_bytes, Time ticks_per_byte);

}  // namespace hem::com
