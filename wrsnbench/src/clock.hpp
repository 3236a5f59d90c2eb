// Monotonic clock shared by every timing in the benchmark.  CLOCK_MONOTONIC
// is also what Python's time.monotonic() reads, so run.py can time a
// child's set-up from the moment it spawned the process.
#pragma once

#include <time.h>

namespace wrsnbench {

inline double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace wrsnbench
