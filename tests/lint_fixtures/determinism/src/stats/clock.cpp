// Fixture: telemetry may timestamp its records with real time (wall-clock
// is exempt under src/stats/), but every other token rule still applies.

#include <chrono>
#include <unordered_map>

long stamp_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();  // fine: src/stats/ may read the wall clock
}

std::unordered_map<int, long> stamps;  // expect: unordered-container
