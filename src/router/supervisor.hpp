// Replica health supervisor: sentinel probes + per-replica circuit
// breakers (DESIGN.md §13).
//
// Before this, replica health was binary and manual: a replica answered
// submits until an operator sent "#REPLICA kill", and came back only on
// "#REPLICA revive". The supervisor closes the loop automatically:
//
//   * every probe interval each replica decodes a sentinel sentence under
//     a deadline; a probe fails when the replica rejects the submit, the
//     response misses the deadline, or the status is terminal (SHUTDOWN /
//     ERROR / DEADLINE_EXCEEDED) — OVERLOADED and degraded answers are
//     load signals, not health failures;
//   * `failure_threshold` consecutive failures open the replica's circuit
//     breaker: the router routes requests around it (unless every breaker
//     is open — fail-static beats fail-closed when the probe itself is
//     what is broken);
//   * an open breaker is re-probed half-open on a util::Backoff schedule;
//     a dead (killed) replica is revived first. One successful half-open
//     probe closes the breaker and resets the backoff.
//
// The "replica.probe" fault point fails a probe before it touches the
// replica, so chaos runs can open breakers deterministically. Metrics:
// router.health.{probes,probe_failures,breaker_opens,breaker_closes,
// revives} counters and the router.health.open_breakers gauge.
//
// The supervisor is opt-in (the router starts it only with a non-zero
// probe interval); manual "#REPLICA kill|revive" keeps working either way
// — a kill just gets noticed, routed around, and eventually revived when
// the supervisor runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/registry.hpp"
#include "src/router/replica.hpp"
#include "src/util/fault.hpp"

namespace graphner::router {

/// Per-replica open/closed flags, readable lock-free from the router's
/// request hot path (one relaxed load per considered replica).
class BreakerBoard {
 public:
  explicit BreakerBoard(std::size_t n)
      : n_(n), open_(std::make_unique<std::atomic<bool>[]>(n)) {
    for (std::size_t i = 0; i < n_; ++i)
      open_[i].store(false, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool is_open(std::size_t i) const noexcept {
    return open_[i].load(std::memory_order_relaxed);
  }
  void set_open(std::size_t i, bool open) noexcept {
    open_[i].store(open, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t open_count() const noexcept {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_; ++i)
      if (is_open(i)) ++count;
    return count;
  }

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<bool>[]> open_;
};

struct SupervisorConfig {
  std::chrono::milliseconds probe_interval{500};
  /// Deadline handed to the sentinel submit; a response slower than this
  /// counts as a failed probe.
  std::chrono::milliseconds probe_deadline{250};
  /// Consecutive probe failures that open the breaker.
  std::size_t failure_threshold = 3;
  /// Half-open re-probe schedule for an open breaker. max_retries is
  /// effectively ignored — an open breaker is re-probed forever at the
  /// capped delay.
  util::BackoffPolicy revive_backoff{std::chrono::milliseconds(100),
                                     std::chrono::milliseconds(2000), 2.0, 0.2,
                                     1 << 30};
  /// Revive a dead replica before a half-open probe (automatic healing of
  /// killed replicas).
  bool auto_revive = true;
};

class HealthSupervisor {
 public:
  /// Starts the probe thread immediately. `replicas` and `breakers` must
  /// outlive the supervisor; stop() (or destruction) joins the thread.
  HealthSupervisor(SupervisorConfig config,
                   std::vector<std::unique_ptr<InProcessReplica>>& replicas,
                   BreakerBoard& breakers, obs::Registry& registry);
  ~HealthSupervisor();

  HealthSupervisor(const HealthSupervisor&) = delete;
  HealthSupervisor& operator=(const HealthSupervisor&) = delete;

  void stop();

  /// One probe sweep over all replicas (the loop body, callable directly
  /// by tests for deterministic single-step drills).
  void probe_all();

 private:
  struct ReplicaState {
    std::size_t consecutive_failures = 0;
    util::Backoff backoff;
    /// Next time an open breaker may half-open probe.
    std::chrono::steady_clock::time_point next_probe{};
    explicit ReplicaState(const util::BackoffPolicy& policy)
        : backoff(policy) {}
  };

  [[nodiscard]] bool probe(InProcessReplica& replica);
  void run();

  /// Serializes probe sweeps: the probe thread and a test driving
  /// probe_all() directly may not touch states_ concurrently.
  std::mutex probe_mutex_;

  SupervisorConfig config_;
  std::vector<std::unique_ptr<InProcessReplica>>& replicas_;
  BreakerBoard& breakers_;
  obs::Counter& probes_;
  obs::Counter& probe_failures_;
  obs::Counter& breaker_opens_;
  obs::Counter& breaker_closes_;
  obs::Counter& revives_;
  obs::Gauge& open_breakers_;
  std::vector<ReplicaState> states_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace graphner::router
