// Simulated time primitives.
//
// All simulated time in this project is kept as unsigned 64-bit nanoseconds.
// A uint64 nanosecond clock wraps after ~584 years of simulated time, far
// beyond any experiment in this repository.
#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>
#include <string>

namespace taichi::sim {

// A point in simulated time, in nanoseconds since simulation start.
using SimTime = uint64_t;

// A span of simulated time, in nanoseconds.
using Duration = uint64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;

// Construction helpers. Arguments are interpreted in the named unit.
constexpr Duration Nanos(uint64_t n) { return n; }
constexpr Duration Micros(uint64_t n) { return n * kMicrosecond; }
constexpr Duration Millis(uint64_t n) { return n * kMillisecond; }
constexpr Duration Seconds(uint64_t n) { return n * kSecond; }

// Fractional constructors, useful for calibration constants such as 2.7 us.
constexpr Duration MicrosF(double us) { return static_cast<Duration>(us * 1e3); }
constexpr Duration MillisF(double ms) { return static_cast<Duration>(ms * 1e6); }

// Conversions to floating-point values of the named unit.
constexpr double ToMicros(Duration d) { return static_cast<double>(d) / 1e3; }
constexpr double ToMillis(Duration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToSeconds(Duration d) { return static_cast<double>(d) / 1e9; }

// Renders a duration with an auto-selected unit, e.g. "2.70us" or "67ms".
std::string FormatDuration(Duration d);

}  // namespace taichi::sim

#endif  // SRC_SIM_TIME_H_
