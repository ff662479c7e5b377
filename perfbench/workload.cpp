// One workload end to end: set-up, the phases of traffic against the
// in-process tier, the offline output checks, and the metrics.
//
// Untraced run (the end-to-end metrics):
//   set-up x 3 (setup_s) -> warm-up -> saturation burst (tag_sps) ->
//   nominal-rate burst (tag_cpu_us, tag_p50_ms, tag_p99_ms) -> fixed rate
//   ladder (slo_rate_sps) -> nominal burst -> saturation burst (on
//   learn_mixed, #LEARN commits beside all of these) -> #LEARN commits on
//   the idle tier (learn_cpu_ms) -> F1 probe pass (entity_f1) -> tier
//   stopped -> Algorithm 1 passes (corpus_cpu_us, corpus_sps) -> offline
//   checks.
// Traced run (the per-layer metrics): see layers.cpp.
#include <sys/resource.h>

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "perfbench/session.hpp"
#include "src/serve/protocol.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kClosedWindow = 64;   ///< in flight per connection
constexpr std::size_t kWindowsPerBurst = 4;
constexpr double kP99LimitMs = 25.0;        ///< slo_rate_sps latency limit
constexpr double kMissMs = 1e6;             ///< latency a failed request counts as
constexpr std::size_t kIdleLearnBatches = 40;
constexpr std::size_t kAlgorithm1Passes = 5;

// Fractions of --seconds per measured phase: two saturation bursts, two
// nominal-rate bursts, and up to six ladder rungs.
constexpr double kSaturationShare = 0.15;
constexpr double kNominalShare = 0.20;
constexpr double kRungShare = 0.05;

std::size_t batches_beside_traffic(double seconds) {
  const double span_ns =
      (2 * kSaturationShare + 2 * kNominalShare + 6 * kRungShare) * seconds * 1e9;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(span_ns / static_cast<double>(kLearnIntervalNs)));
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 31;
  return z * 0x94D049BB133111EBULL;
}

std::vector<std::uint32_t> shuffled_pool(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::uint64_t state = mix(seed, 0x5eed);
  for (std::size_t i = n; i > 1; --i) {
    state = mix(state, i);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

double rss_peak_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Which of `n` equal windows of [t0, end) time `t_ns` falls in; n when
/// after the end.
std::size_t window_of(const PhaseResult& phase, std::size_t n, std::int64_t t_ns) {
  const double width =
      static_cast<double>(phase.end_ns - phase.t0_ns) / static_cast<double>(n);
  return std::min(n, static_cast<std::size_t>(std::max(
                         0.0, static_cast<double>(t_ns - phase.t0_ns) / width)));
}

/// OK latencies of a phase split into `n` equal windows of [t0, end) by
/// completion time; completions after the end join the last window when
/// `keep_tail` (an open loop's drain), else are dropped (a closed loop's).
std::vector<std::vector<double>> completion_windows(const PhaseResult& phase,
                                                    std::size_t n, bool keep_tail) {
  std::vector<std::vector<double>> windows(n);
  for (const auto& stream : phase.streams)
    for (std::size_t i = 0; i < stream.done_ns.size(); ++i) {
      const std::size_t at = window_of(phase, n, stream.done_ns[i]);
      if (at < n || keep_tail) windows[std::min(at, n - 1)].push_back(stream.latency_ms[i]);
    }
  return windows;
}

/// Latencies of a phase with every failed request counted as a miss.
std::vector<double> with_misses(std::vector<double> latencies, const Tally& tally) {
  latencies.insert(latencies.end(), tally.failed(), kMissMs);
  return latencies;
}

}  // namespace

// --- Session -----------------------------------------------------------------------

Session::Session(const WorkloadSpec& spec, const RunOptions& options)
    : spec_(spec), options_(options) {}

Session::~Session() {
  if (learn_thread_.joinable()) {
    learn_thread_.request_stop();
    learn_thread_.join();
  }
  close_tier();
}

SetupTime Session::setup() {
  // Nothing from a previous set-up stays held: ru_maxrss is a lifetime peak.
  close_tier();
  learn_ = LearnResult{};
  observed_.clear();
  model_.reset();
  inputs_.reset();
  const std::int64_t start = now_ns();
  const double cpu_start = process_cpu_seconds();

  batches_beside_traffic_ =
      spec_.learn_concurrent ? batches_beside_traffic(options_.seconds) : 0;
  inputs_ = std::make_unique<Inputs>(
      make_inputs(options_.seed, batches_beside_traffic_ + kIdleLearnBatches));
  model_ = std::make_shared<const core::GraphNerModel>(core::GraphNerModel::train(
      inputs_->corpus.train, {}, model_config()));
  files_ = std::make_unique<TempDir>(scratch_root());
  tier_ = std::make_unique<Tier>(model_, inputs_->canary, files_->path() / "wal");

  std::shared_ptr<const core::GraphNerModel> serving = model_;
  if (spec_.learn_concurrent) {
    const auto seed_file = files_->path() / "learn-seed.txt";
    std::ofstream(seed_file) << inputs_->learn_seed;
    const std::string reply = tier_->router().admin("learn file " + seed_file.string());
    if (reply.rfind("OK", 0) != 0) throw std::runtime_error("learn seed: " + reply);
    serving = tier_->router().learner()->snapshot_model();
  }
  const SetupTime took{static_cast<double>(now_ns() - start) / 1e9,
                       process_cpu_seconds() - cpu_start};

  // Per-run state that is not part of set-up: connections, streams, the
  // learn batch files.
  learn_.generations.push_back(serving);
  clock_.reset();
  batch_files_.clear();
  for (std::size_t b = 0; b < inputs_->learn_batches.size(); ++b) {
    batch_files_.push_back(files_->path() / ("batch-" + std::to_string(b) + ".txt"));
    std::ofstream(batch_files_.back()) << inputs_->learn_batches[b];
  }
  cold_order_ = shuffled_pool(inputs_->pool.size(), options_.seed);
  streams_.clear();
  conns_.clear();
  for (std::size_t c = 0; c < kConns; ++c) {
    streams_.push_back(make_stream(c));
    conns_.push_back(std::make_unique<Conn>(tier_->port()));
  }
  return took;
}

std::unique_ptr<ItemStream> Session::make_stream(std::size_t index) const {
  return std::make_unique<ItemStream>(cold_order_, inputs_->hot.size(),
                                      spec_.hot_fraction, mix(options_.seed, 100 + index),
                                      index * cold_order_.size() / kConns);
}

void Session::observe(const std::vector<Observation>& observed, const Tally& tally) {
  observed_.insert(observed_.end(), observed.begin(), observed.end());
  tally_.merge(tally);
}

void Session::close_tier() {
  admin_.reset();
  conns_.clear();
  tier_.reset();
  files_.reset();
}

PhaseResult Session::run_streams(const std::vector<StreamPlan>& plans, bool traced,
                                 std::size_t cpu_windows) {
  PhaseResult phase;
  phase.streams.resize(plans.size());
  std::vector<std::exception_ptr> errors(plans.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < plans.size(); ++c) {
      phase.streams[c].spans = SpanLog(traced);
      threads.emplace_back([&, c](std::stop_token stop) {
        try {
          drive_stream(*conns_[c], *inputs_, *streams_[c], plans[c], clock_,
                       phase.streams[c], stop);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    // Process CPU time at each window boundary while the clients run.
    for (std::size_t k = 0; k <= cpu_windows; ++k) {
      const std::int64_t at =
          plans[0].t0_ns + (plans[0].end_ns - plans[0].t0_ns) *
                               static_cast<std::int64_t>(k) /
                               static_cast<std::int64_t>(std::max<std::size_t>(1, cpu_windows));
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(at)));
      if (cpu_windows > 0)
        phase.cpu_s.push_back(clock_.traffic_cpu_seconds());
    }
    // Join without requesting a stop; the jthreads only request one (and
    // join) themselves if this scope is left by an exception.
    for (auto& thread : threads) thread.join();
  }
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  for (auto& stream : phase.streams) {
    phase.tally.merge(stream.tally);
    phase.latency_ms.insert(phase.latency_ms.end(), stream.latency_ms.begin(),
                            stream.latency_ms.end());
    phase.lag_ms.insert(phase.lag_ms.end(), stream.lag_ms.begin(), stream.lag_ms.end());
    observed_.insert(observed_.end(), stream.observed.begin(), stream.observed.end());
  }
  tally_.merge(phase.tally);
  return phase;
}

PhaseResult Session::closed_loop(double seconds, bool traced) {
  const std::int64_t t0 = now_ns();
  std::vector<StreamPlan> plans(kConns);
  for (auto& plan : plans) {
    plan.t0_ns = t0;
    plan.end_ns = t0 + static_cast<std::int64_t>(seconds * 1e9);
    plan.window = kClosedWindow;
  }
  PhaseResult phase = run_streams(plans, traced);
  phase.t0_ns = t0;
  phase.end_ns = plans[0].end_ns;
  return phase;
}

PhaseResult Session::open_loop(double rate, double seconds, bool traced,
                               std::uint64_t request_base) {
  const std::int64_t period =
      static_cast<std::int64_t>(static_cast<double>(kConns) * 1e9 / rate);
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::vector<StreamPlan> plans(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    plans[c].t0_ns = t0 + static_cast<std::int64_t>(c) * period / kConns;
    plans[c].end_ns = t0 + static_cast<std::int64_t>(seconds * 1e9);
    plans[c].period_ns = period;
    plans[c].request_base = request_base + c * 100'000'000ULL;
  }
  PhaseResult phase = run_streams(plans, traced, kWindowsPerBurst);
  phase.t0_ns = t0;
  phase.end_ns = plans[0].end_ns;
  return phase;
}

void Session::start_learn(bool over_wire, bool beside_traffic) {
  if (over_wire && !admin_) admin_ = std::make_unique<Conn>(tier_->port());
  Conn* conn = over_wire ? admin_.get() : nullptr;
  const std::span<const std::filesystem::path> all(batch_files_);
  const auto files = beside_traffic ? all.first(batches_beside_traffic_)
                                    : all.subspan(batches_beside_traffic_);
  const std::int64_t interval_ns = beside_traffic ? kLearnIntervalNs : 0;
  learn_thread_ = std::jthread([this, conn, files, interval_ns,
                                beside_traffic](std::stop_token stop) {
    try {
      drive_learn(conn, tier_->router(), files, now_ns(), interval_ns, !beside_traffic,
                  clock_, learn_, stop);
    } catch (...) {
      learn_error_ = std::current_exception();
    }
  });
}

void Session::finish_learn() {
  if (learn_thread_.joinable()) learn_thread_.join();
  if (learn_error_) std::rethrow_exception(learn_error_);
  tally_.merge(learn_.tally);
  learn_.tally = Tally{};
}

double Session::probe_f1() {
  // Every probe sentence exactly once, split across the connections, on a
  // tier whose generation no longer changes.
  std::vector<std::uint32_t> probe(kProbeItems);
  for (std::size_t i = 0; i < kProbeItems; ++i) probe[i] = static_cast<std::uint32_t>(i);
  std::vector<std::unique_ptr<ItemStream>> saved;
  saved.swap(streams_);
  const std::size_t per_conn = (kProbeItems + kConns - 1) / kConns;
  std::vector<StreamPlan> plans(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    streams_.push_back(std::make_unique<ItemStream>(probe, 1, 0.0, 0, c * per_conn));
    plans[c].t0_ns = now_ns();
    plans[c].end_ns = plans[c].t0_ns + 60'000'000'000;
    plans[c].window = 32;
    plans[c].sample_every = 1;
    plans[c].max_requests = std::min(per_conn, kProbeItems - c * per_conn);
  }
  const std::size_t before = observed_.size();
  probe_generation_ = learn_.generations.size() - 1;
  PhaseResult phase = run_streams(plans, false);
  streams_.swap(saved);
  if (phase.tally.ok != kProbeItems)
    throw CheckFailed("probe pass: " + phase.tally.str());

  F1Counts counts;
  std::vector<text::Tag> tags;
  for (std::size_t i = before; i < observed_.size(); ++i) {
    const Observation& obs = observed_[i];
    if (!parse_tags(obs.line, tags)) throw CheckFailed("malformed probe reply " + obs.line);
    counts.add(item_of(*inputs_, obs.code).gold, tags);
  }
  return counts.f1();
}

double Session::offline_f1() const {
  const core::GraphNerModel& model = *learn_.generations[probe_generation_];
  crf::LinearChainCrf::Scratch scratch;
  features::EncodeScratch encode;
  F1Counts counts;
  for (std::size_t i = 0; i < kProbeItems; ++i) {
    const Item& item = inputs_->pool[i];
    counts.add(item.gold, model.decode_one_blended(item.sentence, scratch, encode));
  }
  return counts.f1();
}

void Session::check_observed() {
  const auto& generations = learn_.generations;
  const int last = static_cast<int>(generations.size()) - 1;
  if (options_.inject_mismatch && !observed_.empty())
    observed_.front().line += " X";  // a deliberately wrong response

  // An observation is checked when every generation that may have served
  // it was kept. Expected lines for each (item, generation) needed are
  // decoded in parallel; each worker owns its scratch and its slice.
  const auto candidates = [&](const Observation& obs) {
    return std::make_pair(obs.gen_lo, std::min(obs.gen_hi, last));
  };
  const auto checkable = [&](const Observation& obs) {
    const auto [lo, hi] = candidates(obs);
    for (int g = lo; g <= hi; ++g)
      if (!generations[static_cast<std::size_t>(g)]) return false;
    return true;
  };
  std::vector<std::pair<std::uint32_t, int>> keys;
  for (const auto& obs : observed_) {
    if (!checkable(obs)) continue;
    const auto [lo, hi] = candidates(obs);
    for (int g = lo; g <= hi; ++g) keys.emplace_back(obs.code, g);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::string> expected(keys.size());
  {
    const std::size_t workers =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        crf::LinearChainCrf::Scratch scratch;
        features::EncodeScratch encode;
        for (std::size_t i = w; i < keys.size(); i += workers)
          expected[i] = expected_line(*generations[static_cast<std::size_t>(keys[i].second)],
                                      item_of(*inputs_, keys[i].first), scratch, encode);
      });
    }
  }
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first;
  for (const auto& obs : observed_) {
    if (!checkable(obs)) continue;
    ++checked;
    bool match = false;
    const auto [lo, hi] = candidates(obs);
    for (int g = lo; g <= hi && !match; ++g) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), std::make_pair(obs.code, g));
      match = expected[static_cast<std::size_t>(it - keys.begin())] == obs.line;
    }
    if (!match && mismatches++ == 0) first = obs.line;
  }
  tally_.mismatches += mismatches;
  std::cout << "check: " << checked << " of " << observed_.size()
            << " kept responses (the rest may have come from generations not kept) against "
            << keys.size() << " offline decodes over " << generations.size()
            << " model generation(s): " << mismatches << " mismatch(es)\n";
  if (mismatches > 0)
    throw CheckFailed(std::to_string(mismatches) +
                      " response(s) differ from the offline decode, first: " + first);
}

// --- untraced run --------------------------------------------------------------------

namespace {

struct Rung {
  double rate = 0.0;
  double p99_ms = 0.0;
  bool pass = false;
  std::size_t samples = 0;
};

/// The ladder's highest passing rate (the ladder stops at its first miss).
double slo_rate(const std::vector<Rung>& rungs) {
  double best = 0.0;
  for (const Rung& rung : rungs)
    if (rung.pass) best = rung.rate;
  return best;
}

void print_phase(const std::string& name, const PhaseResult& phase) {
  std::cout << "phase " << name << ": " << phase.tally.str() << '\n';
}

}  // namespace

RunResult Session::run_untraced() {
  RunResult result;
  Report& report = result.report;

  // Set-up: generate inputs, train the CRF, start the tier (and seed the
  // learner on learn_mixed). setup_s is its CPU time, all threads: wall time
  // on a shared machine swings with other tenants' load (printed beside it).
  std::vector<double> setup_cpu_s, setup_wall_s;
  for (std::size_t r = 0; r < std::max<std::size_t>(1, options_.setup_repeats); ++r) {
    const SetupTime took = setup();
    setup_cpu_s.push_back(took.cpu_s);
    setup_wall_s.push_back(took.wall_s);
  }
  report.add_median("setup_s", "s", setup_cpu_s, "set-up CPU time, all threads");
  report.add_median("setup_wall_s", "s", setup_wall_s, "set-up wall time");

  // Two saturation and two nominal-rate bursts bracket the ladder, each cut
  // into windows; the metrics are medians over all windows, so a noisy
  // stretch of a shared machine moves at most a minority of them.
  const double S = options_.seconds;
  print_phase("warmup", closed_loop(0.5, false));
  if (spec_.learn_concurrent) start_learn(true, true);

  std::vector<double> window_sps, window_cpu_us, window_p50, window_p99, nominal_latency,
      nominal_lag;
  const auto saturation_burst = [&] {
    const PhaseResult phase = closed_loop(kSaturationShare * S, false);
    print_phase("saturation", phase);
    for (const auto& window : completion_windows(phase, kWindowsPerBurst, false))
      window_sps.push_back(static_cast<double>(window.size()) /
                           (kSaturationShare * S / kWindowsPerBurst));
  };
  const auto nominal_burst = [&] {
    const PhaseResult phase = open_loop(spec_.nominal_sps, kNominalShare * S, false, 0);
    print_phase("nominal " + std::to_string(static_cast<long>(spec_.nominal_sps)) + "/s",
                phase);
    for (auto& window : completion_windows(phase, kWindowsPerBurst, true)) {
      window = with_misses(std::move(window), phase.tally);
      window_p50.push_back(quantile(window, 0.50));
      window_p99.push_back(quantile(window, 0.99));
    }
    // CPU per sentence at a fixed rate: how much work each request costs,
    // which other tenants' load on a shared machine moves far less than
    // wall-clock figures. Time inside #LEARN commits is left out of both
    // the CPU and the sentence count.
    std::vector<std::size_t> served(kWindowsPerBurst, 0);
    for (const auto& stream : phase.streams)
      for (const std::int64_t done : stream.done_ns) {
        const std::size_t w = window_of(phase, kWindowsPerBurst, done);
        if (w < kWindowsPerBurst && !clock_.in_commit(done)) ++served[w];
      }
    for (std::size_t w = 0; w < kWindowsPerBurst; ++w)
      window_cpu_us.push_back((phase.cpu_s[w + 1] - phase.cpu_s[w]) * 1e6 /
                              static_cast<double>(std::max<std::size_t>(1, served[w])));
    const auto all = with_misses(phase.latency_ms, phase.tally);
    nominal_latency.insert(nominal_latency.end(), all.begin(), all.end());
    nominal_lag.insert(nominal_lag.end(), phase.lag_ms.begin(), phase.lag_ms.end());
  };

  saturation_burst();
  nominal_burst();
  // Fixed open-loop ladder, ascending; it stops at the first miss.
  std::vector<Rung> rungs;
  for (const double rate : spec_.ladder_sps) {
    const PhaseResult phase = open_loop(rate, kRungShare * S, false, 0);
    print_phase("ladder " + std::to_string(static_cast<long>(rate)) + "/s", phase);
    const std::vector<double> latencies = with_misses(phase.latency_ms, phase.tally);
    Rung rung;
    rung.rate = rate;
    rung.samples = latencies.size();
    rung.p99_ms = quantile(latencies, 0.99);
    // Requests still unanswered when the last one was due.
    std::size_t backlog = phase.tally.failed();
    for (const auto& stream : phase.streams)
      for (const std::int64_t done : stream.done_ns) backlog += done > phase.end_ns;
    rung.pass = phase.tally.failed() == 0 && rung.p99_ms <= kP99LimitMs &&
                static_cast<double>(backlog) <= std::max(1.0, rate * kP99LimitMs / 1e3);
    std::cout << "rung " << rate << "/s: p99 " << rung.p99_ms << " ms over "
              << rung.samples << ", backlog at end " << backlog << " -> "
              << (rung.pass ? "meets" : "misses") << " the " << kP99LimitMs
              << " ms limit\n";
    rungs.push_back(rung);
    if (!rung.pass) break;
  }
  nominal_burst();
  saturation_burst();

  report.add_median("tag_sps", "1/s", window_sps,
                    "closed loop, " + std::to_string(kConns) + " connections x " +
                        std::to_string(kClosedWindow) + " in flight, per window");
  report.add_median("tag_cpu_us", "us", window_cpu_us,
                    "process CPU time (tier and clients, outside #LEARN commits) per "
                    "sentence at the nominal rate, per window");
  const auto pooled = [&](double q) {
    std::ostringstream note;
    note << "per window of the open loop at " << spec_.nominal_sps
         << "/s, from due time; pooled p" << q * 100 << " " << quantile(nominal_latency, q)
         << " ms of n=" << nominal_latency.size() << ", "
         << count_above(nominal_latency, quantile(nominal_latency, q)) << " beyond";
    return note.str();
  };
  report.add_median("tag_p50_ms", "ms", window_p50, pooled(0.50));
  report.add_median("tag_p99_ms", "ms", window_p99, pooled(0.99));
  report.add_percentile("client.gen_lag_p99_ms", "ms", nominal_lag, 0.99,
                        "send time minus due time");
  report.add_value("slo_rate_sps", "1/s", slo_rate(rungs), rungs.size(),
                   "highest ladder rate with p99 <= " +
                       std::to_string(static_cast<int>(kP99LimitMs)) +
                       " ms and no growing backlog");

  // learn_mixed's commits beside the traffic, then on every workload the
  // idle-tier commits (learn_cpu_ms), then the probe under the final
  // generation.
  if (spec_.learn_concurrent) finish_learn();
  const std::vector<double> beside_traffic_ms = learn_.commit_ms;
  start_learn(true, false);
  finish_learn();
  const std::vector<double>& wire_ms =
      spec_.learn_concurrent ? beside_traffic_ms : learn_.commit_ms;
  report.add_percentile("learn_p50_ms", "ms", wire_ms, 0.50,
                        spec_.learn_concurrent ? "#LEARN over the wire beside traffic"
                                               : "#LEARN over the wire, idle tier");
  report.add_percentile("learn_p90_ms", "ms", wire_ms, 0.90);
  report.add_median("learn_cpu_ms", "ms", learn_.commit_cpu_ms,
                    "process CPU time, all threads, of each #LEARN commit on the idle tier");
  const double served_f1 = probe_f1();
  report.add_value("entity_f1", "ratio", served_f1, kProbeItems,
                   "served tags vs generator gold, micro over entities");
  close_tier();  // Algorithm 1 and the checks run on an idle machine

  const double reference_f1 = offline_f1();
  if (served_f1 != reference_f1)
    throw CheckFailed("entity_f1 " + std::to_string(served_f1) +
                      " differs from its offline value " + std::to_string(reference_f1));

  std::vector<double> corpus_sps, corpus_cpu_us;
  std::vector<std::vector<text::Tag>> first_tags;
  const auto test = inputs_->corpus.test;
  for (std::size_t pass = 0; pass < kAlgorithm1Passes; ++pass) {
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_seconds();
    const auto context = model_->prepare(inputs_->corpus.train, test);
    const auto output = model_->finish(context, model_config().propagation,
                                       model_config().alpha);
    corpus_sps.push_back(static_cast<double>(test.size()) /
                         (static_cast<double>(now_ns() - start) / 1e9));
    corpus_cpu_us.push_back((process_cpu_seconds() - cpu_start) * 1e6 /
                            static_cast<double>(test.size()));
    if (pass == 0) first_tags = output.graphner_tags;
    else if (output.graphner_tags != first_tags)
      throw CheckFailed("Algorithm 1 output differs between passes");
  }
  report.add_median("corpus_sps", "1/s", corpus_sps,
                    std::to_string(test.size()) + " test + " +
                        std::to_string(inputs_->corpus.train.size()) +
                        " labelled sentences through prepare + finish");
  report.add_median("corpus_cpu_us", "us", corpus_cpu_us,
                    "process CPU time per test sentence through Algorithm 1");

  check_observed();
  report.add_value("ok_frac", "ratio",
                   tally_.sent > 0 ? static_cast<double>(tally_.ok) /
                                         static_cast<double>(tally_.sent)
                                   : 0.0,
                   tally_.sent, "fail_frac = " +
                                    std::to_string(1.0 - static_cast<double>(tally_.ok) /
                                                             static_cast<double>(tally_.sent)));
  report.add_value("peak_rss_mb", "MB", rss_peak_mb(), 1, "getrusage ru_maxrss");
  result.tally = tally_;
  return result;
}

// --- entry points --------------------------------------------------------------------

const std::vector<WorkloadSpec>& workloads() {
  // Rates are constants, fixed from the capacity measured on seed 1 (see
  // README.md); they are never calibrated per run.
  static const std::vector<WorkloadSpec> specs = {
      {"tag_cold", 0.0, false, 4000.0, {2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0}},
      {"tag_hot", 0.9, false, 10000.0, {10000.0, 20000.0, 30000.0, 40000.0, 50000.0, 60000.0}},
      {"learn_mixed", 0.9, true, 10000.0, {10000.0, 20000.0, 30000.0, 40000.0, 50000.0, 60000.0}},
  };
  return specs;
}

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  Session session(spec, options);
  return options.trace ? run_traced(session) : session.run_untraced();
}

}  // namespace perfbench
