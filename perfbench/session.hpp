// The state of one workload run: inputs, model, tier, client connections,
// and everything observed for the offline checks. Owned by one thread; the
// client threads it starts are joined before any of its methods returns.
#pragma once

#include <exception>
#include <thread>

#include "perfbench/load.hpp"

namespace perfbench {

inline constexpr std::size_t kConns = 3;  ///< traffic connections (+1 admin)
/// Spacing of the #LEARN batches that run beside learn_mixed's traffic.
inline constexpr std::int64_t kLearnIntervalNs = 140'000'000;

struct PhaseResult {
  std::vector<StreamResult> streams;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  Tally tally;
  std::int64_t t0_ns = 0;
  std::int64_t end_ns = 0;
  /// Process CPU seconds at each window boundary of [t0, end] (open loop),
  /// less those spent inside #LEARN commits.
  std::vector<double> cpu_s;
};

struct SetupTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time, all threads
};

class Session {
 public:
  Session(const WorkloadSpec& spec, const RunOptions& options);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Tear down any previous set-up, then generate inputs, train, start the
  /// tier (and seed the learner on learn_mixed); returns the time that
  /// took. Connections and streams are opened afterwards, untimed.
  SetupTime setup();
  /// Stop the tier and remove its temp dir (idempotent).
  void close_tier();

  [[nodiscard]] RunResult run_untraced();

  /// Closed loop for `seconds` on every traffic connection.
  PhaseResult closed_loop(double seconds, bool traced);
  /// Open loop at `rate` requests/s in total for `seconds`.
  PhaseResult open_loop(double rate, double seconds, bool traced,
                        std::uint64_t request_base);
  /// Start committing learn batches on the learn thread, over the admin
  /// connection or through Router::admin in-process: beside the traffic,
  /// learn_mixed's batches one every kLearnIntervalNs; else the idle-tier
  /// batches back to back.
  void start_learn(bool over_wire, bool beside_traffic);
  void finish_learn();
  /// Send the probe set once; entity F1 of the served tags.
  double probe_f1();
  /// The same F1 from an offline decode under the probed generation.
  [[nodiscard]] double offline_f1() const;
  /// Compare every kept response with the offline decode of the generations
  /// that may have served it; throws CheckFailed on any difference.
  void check_observed();

  /// The workload's request stream number `index` (0..2 feed the traffic
  /// connections); the same seed gives the same stream.
  [[nodiscard]] std::unique_ptr<ItemStream> make_stream(std::size_t index) const;
  /// Keep responses produced outside the wire senders for the offline check.
  void observe(const std::vector<Observation>& observed, const Tally& tally);
  [[nodiscard]] const GenerationClock& clock() const noexcept { return clock_; }

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }
  [[nodiscard]] const Inputs& inputs() const noexcept { return *inputs_; }
  [[nodiscard]] const core::GraphNerModel& model() const noexcept { return *model_; }
  [[nodiscard]] Tier& tier() noexcept { return *tier_; }
  [[nodiscard]] const LearnResult& learn() const noexcept { return learn_; }
  [[nodiscard]] const Tally& tally() const noexcept { return tally_; }

 private:
  /// Drive one phase on every traffic connection; with `cpu_windows`,
  /// sample process CPU time at that many equal windows of the phase.
  PhaseResult run_streams(const std::vector<StreamPlan>& plans, bool traced,
                          std::size_t cpu_windows = 0);

  const WorkloadSpec& spec_;
  RunOptions options_;
  std::unique_ptr<Inputs> inputs_;
  std::shared_ptr<const core::GraphNerModel> model_;
  std::unique_ptr<TempDir> files_;
  std::unique_ptr<Tier> tier_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<Conn> admin_;  ///< the #LEARN connection, opened on first use
  std::vector<std::uint32_t> cold_order_;
  std::vector<std::unique_ptr<ItemStream>> streams_;
  std::vector<std::filesystem::path> batch_files_;
  std::size_t batches_beside_traffic_ = 0;  ///< the first ones; the rest run idle
  GenerationClock clock_;
  LearnResult learn_;
  std::exception_ptr learn_error_;
  std::size_t probe_generation_ = 0;
  std::vector<Observation> observed_;
  Tally tally_;
  /// Declared last: joined (stop requested) first on destruction, while the
  /// tier and connections it uses are still alive.
  std::jthread learn_thread_;
};

/// The traced run of `session`'s workload: the per-layer metrics.
[[nodiscard]] RunResult run_traced(Session& session);

}  // namespace perfbench
