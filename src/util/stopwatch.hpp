// Wall-clock timing used by the Fig. 2 harness and the logging layer.
#pragma once

#include <chrono>

namespace graphner::util {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates time across multiple start/stop intervals (e.g. summing the
/// graph-propagation share of a full pipeline run).
class IntervalTimer {
 public:
  void start() noexcept { watch_.restart(); running_ = true; }
  void stop() noexcept {
    if (running_) total_ += watch_.seconds();
    running_ = false;
  }
  [[nodiscard]] double seconds() const noexcept {
    return running_ ? total_ + watch_.seconds() : total_;
  }
  void reset() noexcept { total_ = 0.0; running_ = false; }

 private:
  Stopwatch watch_;
  double total_ = 0.0;
  bool running_ = false;
};

}  // namespace graphner::util
