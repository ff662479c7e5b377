// Load generation over loopback TCP: request streams, the open- and
// closed-loop senders, and the #LEARN commit loop. Each runs on one client
// thread over one non-blocking connection.
#pragma once

#include <atomic>
#include <filesystem>
#include <mutex>
#include <span>
#include <stop_token>

#include "perfbench/bench.hpp"

namespace perfbench {

/// Non-blocking TCP connection to 127.0.0.1:<port> with line framing.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void queue(std::string_view line);
  /// Write what the socket takes now; false on a broken connection.
  bool flush();
  [[nodiscard]] bool want_write() const noexcept { return out_pos_ < out_.size(); }
  /// Wait up to `timeout_ns` for readability (or writability while output
  /// is pending), then read what arrived; false on EOF or error.
  bool wait_and_read(std::int64_t timeout_ns);
  /// Pop the next complete response line.
  bool next_line(std::string& line);

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_pos_ = 0;
  std::string in_;
  std::size_t in_pos_ = 0;
};

/// Item codes: cold pool index, or kHotBit | hot-set index.
inline constexpr std::uint32_t kHotBit = 1u << 31;
[[nodiscard]] inline const Item& item_of(const Inputs& in, std::uint32_t code) {
  return (code & kHotBit) ? in.hot[code & ~kHotBit] : in.pool[code];
}

/// Deterministic request stream: a `hot_fraction` share of uniform draws
/// from the hot set, the rest walking a seeded permutation of the cold pool
/// (uniform without replacement, so a cold sentence recurs only after the
/// whole pool has gone by — far beyond the 4096-entry cache).
class ItemStream {
 public:
  ItemStream(const std::vector<std::uint32_t>& cold_order, std::size_t hot_items,
             double hot_fraction, std::uint64_t seed, std::size_t cold_offset);
  [[nodiscard]] std::uint32_t next();

 private:
  [[nodiscard]] std::uint64_t raw();
  const std::vector<std::uint32_t>& cold_order_;
  std::size_t hot_items_;
  std::uint64_t hot_threshold_;
  std::uint64_t state_;
  std::size_t cold_pos_;
};

/// Which model generation may have served a response: learn commits
/// acknowledged before the request was sent bound it from below, commits
/// begun before the response arrived from above.
///
/// It also keeps the process CPU time and the wall intervals spent inside
/// commits (each with the benchmark's snapshot of the new generation), so
/// that tag_cpu_us leaves them out: while a commit is open, the traffic's
/// CPU clock stands still.
class GenerationClock {
 public:
  [[nodiscard]] int lower() const { return committed_.load(); }
  [[nodiscard]] int upper() const {
    const bool busy = in_flight_.load();
    return committed_.load() + (busy ? 1 : 0);
  }

  void reset();
  void begin_commit();
  /// Close the open commit; `ok` = a new generation now serves.
  void end_commit(bool ok);
  /// Process CPU seconds used so far, less those used inside commits.
  [[nodiscard]] double traffic_cpu_seconds() const;
  /// Whether steady-clock time `t_ns` fell inside a commit.
  [[nodiscard]] bool in_commit(std::int64_t t_ns) const;

 private:
  std::atomic<int> committed_{0};
  std::atomic<bool> in_flight_{false};
  mutable std::mutex mutex_;
  double open_cpu_s_ = 0.0;    ///< process CPU when the open commit began
  double commit_cpu_s_ = 0.0;  ///< process CPU inside closed commits
  /// [begin, end) of every commit in order; the open one ends at INT64_MAX.
  std::vector<std::pair<std::int64_t, std::int64_t>> commits_ns_;
};

/// A response kept for the offline check.
struct Observation {
  std::uint32_t code = 0;
  std::string line;
  int gen_lo = 0;
  int gen_hi = 0;
};

struct StreamResult {
  std::vector<double> latency_ms;   ///< OK responses (open loop: from due time)
  std::vector<double> lag_ms;       ///< send time minus due time
  std::vector<std::int64_t> done_ns;  ///< completion times of OK responses
  Tally tally;
  std::vector<Observation> observed;
  SpanLog spans{false};
};

struct StreamPlan {
  std::int64_t t0_ns = 0;
  std::int64_t end_ns = 0;      ///< open loop: last due time; closed: stop sending
  std::int64_t period_ns = 0;   ///< open loop spacing on this connection (0 = closed)
  std::size_t window = 0;       ///< closed loop: requests in flight
  std::size_t max_requests = 0; ///< closed loop: stop after this many (0 = none)
  std::size_t sample_every = 8; ///< keep every n-th response for the check
  std::uint64_t request_base = 0;  ///< request ids for spans
};

/// Send and collect one connection's share of a phase.
void drive_stream(Conn& conn, const Inputs& inputs, ItemStream& stream,
                  const StreamPlan& plan, const GenerationClock& clock,
                  StreamResult& out, std::stop_token stop);

struct LearnResult {
  std::vector<double> commit_ms;      ///< send -> reply (wire) or admin() time
  std::vector<double> commit_cpu_ms;  ///< process CPU per commit on the idle tier
  std::vector<double> snapshot_ms;    ///< learner snapshot after each commit
  std::vector<std::string> replies;
  Tally tally;
  /// generations[0] = model before the first commit, then one per commit;
  /// null where the generation was not kept for the checks.
  std::vector<std::shared_ptr<const core::GraphNerModel>> generations;
};

/// Commit each batch file with "#LEARN file <path>": over `conn` when given,
/// else through Router::admin on the calling thread. Batch k is due at
/// t0 + k * interval and sent when due, but no sooner than half an interval
/// after the previous reply, so that commits never fill all the time beside
/// the traffic. With `idle_tier` (no other traffic), each commit's process
/// CPU time, all threads, is recorded.
void drive_learn(Conn* conn, router::Router& router,
                 std::span<const std::filesystem::path> files, std::int64_t t0_ns,
                 std::int64_t interval_ns, bool idle_tier, GenerationClock& clock,
                 LearnResult& out, std::stop_token stop);

}  // namespace perfbench
