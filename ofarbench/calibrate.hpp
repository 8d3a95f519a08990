// Host-speed calibration for ofarbench (see README.md, "Host speed").
//
// A fixed integer kernel that shares no code with the simulator: random
// loads and stores with a data-dependent branch in a 1 MiB table, four
// independent integer streams with an unpredictable branch into a 32 KiB
// table, and random read-modify-writes in a 16 MiB table. The time it takes
// shows how fast this host runs right now, so run.py can divide host-speed
// drift out of its timings. It is built as its own library with only this
// package's flags, so a change to the simulator or its build cannot change
// it.
#pragma once

#include <cstdint>

namespace ofarbench {

struct Calibration {
  double seconds;          // host time of one kernel run
  std::uint64_t checksum;  // kCalibrationChecksum on every host and run
};

/// Runs the kernel once, timed.
Calibration calibrate();

inline constexpr std::uint64_t kCalibrationChecksum = 0xbc530f7e54eefbeeull;

}  // namespace ofarbench
