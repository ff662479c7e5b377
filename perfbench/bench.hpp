// Shared declarations of the end-to-end benchmark (see README.md).
//
// The benchmark is one process: it trains the model, runs the serving tier
// (Router + SocketServer on an ephemeral loopback port) in-process, drives
// it from at most four client threads, checks every sampled response
// against an offline decode, and prints one JSON result line. It never
// forks or execs; every thread it starts is owned by a std::jthread or by
// an RAII tier object and joined on every exit path.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/corpus.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/router/router.hpp"
#include "src/serve/socket_server.hpp"
#include "src/text/sentence.hpp"

namespace perfbench {

using namespace graphner;

// --- time and statistics ----------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time this process has used so far, all threads, in seconds.
[[nodiscard]] double process_cpu_seconds();

/// Linear-interpolated quantile of `values` (need not be sorted); 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Samples strictly above `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& values,
                                      double threshold);
[[nodiscard]] double mean(const std::vector<double>& values);

/// A run's output: named metrics with unit, the repeats they came from, and
/// a free-form note; printed as human lines and as the final JSON object.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> repeats;  ///< per-repeat values the median came from
  std::string note;
};

class Report {
 public:
  /// Value = median of `repeats`.
  void add_median(const std::string& name, const std::string& unit,
                  std::vector<double> repeats, const std::string& note = "");
  /// A percentile of a latency sample: prints the sample count and how many
  /// samples lie beyond it.
  void add_percentile(const std::string& name, const std::string& unit,
                      const std::vector<double>& samples, double q,
                      const std::string& note = "");
  void add_value(const std::string& name, const std::string& unit, double value,
                 std::size_t samples, const std::string& note = "");
  [[nodiscard]] const Metric* find(const std::string& name) const;
  /// Human-readable lines ("metric <name> = ...") on stdout.
  void print(const std::string& prefix) const;

 private:
  std::vector<Metric> metrics_;
};

/// Requests attempted and how each ended, per phase.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::map<std::string, std::uint64_t> refused;  ///< by wire status
  std::uint64_t transport_errors = 0;
  std::uint64_t mismatches = 0;  ///< OK lines that differ from offline decode

  void merge(const Tally& other);
  /// Everything sent that did not come back OK (refused, lost, cut off).
  [[nodiscard]] std::uint64_t failed() const noexcept { return sent - ok; }
  [[nodiscard]] std::string str() const;
};

// --- spans ------------------------------------------------------------------

/// One traced interval: layer name, start/end (steady clock, ns), parent
/// span index in the same log (-1 = root) and the request it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Per-thread in-memory span log; merged and written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  std::int32_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Close a span opened with end_ns 0.
  void end(std::int32_t index, std::int64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Mean duration (us) of the spans named `name`.
  [[nodiscard]] double mean_us(const char* name) const;
  void append(const SpanLog& other);

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Write every span as one TSV line: name, start_ns, end_ns, parent index,
/// request id.
void write_spans(const std::filesystem::path& path, const SpanLog& log);

// --- process hygiene ----------------------------------------------------------

/// A unique directory under `base`, removed (recursively) on destruction.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& base);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

/// Where the benchmark keeps temporary files: inside the working directory,
/// under the build directory the run script uses.
[[nodiscard]] std::filesystem::path scratch_root();

/// Ends the process with status 124 if it is still running `limit` after
/// construction; joined (and disarmed) on destruction.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable_any wake_;
  std::jthread thread_;
};

/// What this process still holds: threads other than the caller's, child
/// processes, listening TCP sockets, and entries left under scratch_root().
struct Leftovers {
  std::size_t extra_threads = 0;
  std::size_t children = 0;
  std::size_t listening_sockets = 0;
  std::size_t temp_entries = 0;
  [[nodiscard]] bool clean() const noexcept {
    return extra_threads == 0 && children == 0 && listening_sockets == 0 &&
           temp_entries == 0;
  }
  [[nodiscard]] std::string str() const;
};
/// `allowed_threads` = threads besides the caller that may remain (the
/// watchdog's).
[[nodiscard]] Leftovers inspect_leftovers(std::size_t allowed_threads);

// --- inputs -----------------------------------------------------------------

/// One request the load generator can send: the TSV wire line, the
/// normalized sentence the tier decodes, and its generator gold tags.
struct Item {
  std::string line;
  text::Sentence sentence;
  std::vector<text::Tag> gold;
};

/// Everything generated from the seed.
struct Inputs {
  corpus::LabelledCorpus corpus;      ///< training + Algorithm 1 test split
  std::vector<Item> pool;             ///< distinct held-out sentences (cold)
  std::vector<Item> hot;              ///< small distinct hot set
  std::vector<text::Sentence> canary; ///< held-out canary decode set
  std::vector<std::string> learn_batches;  ///< sentence lines per batch
  std::string learn_seed;             ///< learner seed batch (learn_mixed)
};

[[nodiscard]] Inputs make_inputs(std::uint64_t seed, std::size_t learn_batches);

/// The probe set the F1 pass sends: the first kProbeItems pool items.
inline constexpr std::size_t kProbeItems = 2000;

[[nodiscard]] core::GraphNerConfig model_config();

// --- the tier -----------------------------------------------------------------

/// graphner_router's shipped configuration plus --blend, with learning on
/// (WAL in `wal_dir`, canary gate over `canary`). Owns the Router and the
/// SocketServer on an ephemeral port; the destructor stops the server, then
/// the router, joining every thread either started.
class Tier {
 public:
  Tier(std::shared_ptr<const core::GraphNerModel> model,
       const std::vector<text::Sentence>& canary,
       const std::filesystem::path& wal_dir);
  ~Tier();
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  [[nodiscard]] router::Router& router() noexcept { return *router_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }

 private:
  std::unique_ptr<router::Router> router_;
  std::unique_ptr<serve::SocketServer> server_;
};

/// Offline reference line for `item` under `model`: format_response of
/// decode_one_blended, exactly what the tier must answer.
[[nodiscard]] std::string expected_line(const core::GraphNerModel& model,
                                        const Item& item,
                                        crf::LinearChainCrf::Scratch& scratch,
                                        features::EncodeScratch& encode);

/// Entity-level micro-F1 of `predicted` against `gold` (exact span + type).
struct F1Counts {
  std::size_t tp = 0, fp = 0, fn = 0;
  void add(const std::vector<text::Tag>& gold,
           const std::vector<text::Tag>& predicted);
  [[nodiscard]] double f1() const noexcept;
};

/// Tags of a TSV response line ("<id>\tOK\tB I O"); false when malformed.
[[nodiscard]] bool parse_tags(const std::string& line, std::vector<text::Tag>& tags);

/// Thrown when an output check fails; the run exits non-zero.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- workloads ------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  double hot_fraction;     ///< share of requests drawn from the hot set
  bool learn_concurrent;   ///< #LEARN batches beside the read traffic
  double nominal_sps;      ///< fixed open-loop rate for p50/p99
  std::vector<double> ladder_sps;  ///< fixed rates for slo_rate_sps
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t setup_repeats = 3;
  /// Self-test hook: corrupt one kept response so the output check fails.
  bool inject_mismatch = false;
};

struct RunResult {
  Report report;
  Tally tally;
};

/// Run one workload end to end. Throws CheckFailed on a wrong output and
/// std::exception on any other failure; either way every thread, socket and
/// temp dir the run created is gone when it returns or throws.
[[nodiscard]] RunResult run_workload(const WorkloadSpec& spec,
                                     const RunOptions& options);

}  // namespace perfbench
