#include "com/can_timing.hpp"

#include <gtest/gtest.h>

namespace hem::com {
namespace {

TEST(CanTimingTest, StandardFrameBits) {
  // 8-byte standard frame: 47 + 64 = 111 bits best, 55 + 80 = 135 worst
  // (the canonical CAN worst-case length).
  EXPECT_EQ(can_frame_bits_best(8), 111);
  EXPECT_EQ(can_frame_bits_worst(8), 135);
  EXPECT_EQ(can_frame_bits_best(0), 47);
  EXPECT_EQ(can_frame_bits_worst(0), 55);
}

TEST(CanTimingTest, ExtendedFrameBits) {
  EXPECT_EQ(can_frame_bits_best(8, CanIdFormat::kExtended29), 131);
  EXPECT_EQ(can_frame_bits_worst(8, CanIdFormat::kExtended29), 160);
}

TEST(CanTimingTest, FrameTimeScalesWithBitTime) {
  // 500 kbit/s with 1 tick = 1 us -> 2 ticks per bit.
  const auto t = can_frame_time(4, 2);
  EXPECT_EQ(t.best, (47 + 32) * 2);
  EXPECT_EQ(t.worst, (55 + 40) * 2);
  EXPECT_LE(t.best, t.worst);
}

TEST(CanTimingTest, MonotoneInPayload) {
  for (int s = 1; s <= 8; ++s) {
    EXPECT_GT(can_frame_bits_best(s), can_frame_bits_best(s - 1));
    EXPECT_GT(can_frame_bits_worst(s), can_frame_bits_worst(s - 1));
    EXPECT_GE(can_frame_bits_worst(s), can_frame_bits_best(s));
  }
}

TEST(CanTimingTest, RejectsInvalidArguments) {
  EXPECT_THROW((void)can_frame_bits_best(-1), std::invalid_argument);
  EXPECT_THROW((void)can_frame_bits_worst(9), std::invalid_argument);
  EXPECT_THROW((void)can_frame_time(4, 0), std::invalid_argument);
}

TEST(EthernetTimingTest, MinimumFramePadding) {
  // Anything below 46 bytes is padded: same wire time.
  const auto tiny = ethernet_frame_time(1, 2);
  const auto min_frame = ethernet_frame_time(46, 2);
  EXPECT_EQ(tiny.worst, min_frame.worst);
  // 84 wire bytes at 2 ticks/byte.
  EXPECT_EQ(min_frame.worst, 84 * 2);
  EXPECT_EQ(min_frame.best, min_frame.worst);  // deterministic
}

TEST(EthernetTimingTest, FullFrame) {
  // 1500-byte payload -> 1538 wire bytes.
  EXPECT_EQ(ethernet_frame_time(1500, 1).worst, 1538);
  EXPECT_THROW((void)ethernet_frame_time(1501, 1), std::invalid_argument);
  EXPECT_THROW((void)ethernet_frame_time(100, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hem::com
