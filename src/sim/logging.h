// Leveled logging with simulated-time prefixes.
//
// Logging is off by default (level kWarn) so tests and benches stay quiet;
// examples raise the level to narrate what the scheduler is doing.
#ifndef SRC_SIM_LOGGING_H_
#define SRC_SIM_LOGGING_H_

#include <cstdarg>
#include <cstdint>

#include "src/sim/time.h"

namespace taichi::sim {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
};

// Global log threshold; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Pluggable log backend: receives each formatted message (no time prefix,
// no trailing newline) with its level and timestamp. The default sink writes
// "[<time>us LEVEL] message" to stderr. Sinks let embedders capture simulator
// diagnostics (test assertions on TAICHI_ERROR output, fleet harnesses
// collecting per-node logs) without touching stdio.
using LogSink = void (*)(LogLevel level, SimTime now, const char* message);

// Installs `sink` as the backend and returns the previous one; nullptr
// restores the default stderr sink. Not thread-safe: install before the
// simulation starts (fleet workers log only through their own node's data,
// but the sink pointer itself is global).
LogSink SetLogSink(LogSink sink);

// printf-style log statement stamped with `now`.
void Logf(LogLevel level, SimTime now, const char* fmt, ...) __attribute__((format(printf, 3, 4)));

}  // namespace taichi::sim

#define TAICHI_LOG(level, now, ...)                          \
  do {                                                       \
    if ((level) >= ::taichi::sim::GetLogLevel()) {           \
      ::taichi::sim::Logf((level), (now), __VA_ARGS__);      \
    }                                                        \
  } while (0)

#define TAICHI_TRACE(now, ...) TAICHI_LOG(::taichi::sim::LogLevel::kTrace, now, __VA_ARGS__)
#define TAICHI_DEBUG(now, ...) TAICHI_LOG(::taichi::sim::LogLevel::kDebug, now, __VA_ARGS__)
#define TAICHI_INFO(now, ...) TAICHI_LOG(::taichi::sim::LogLevel::kInfo, now, __VA_ARGS__)
#define TAICHI_ERROR(now, ...) TAICHI_LOG(::taichi::sim::LogLevel::kError, now, __VA_ARGS__)

#endif  // SRC_SIM_LOGGING_H_
