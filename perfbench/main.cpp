// perfbench: the repository's end-to-end benchmark (see README.md).
//
//   perfbench --workload <tag_cold|tag_hot|learn_mixed|all> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Prints human-readable phase and metric lines, then as its last stdout
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Any wrong output, failed check or error exits non-zero with no JSON line.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/bench.hpp"

namespace {

using namespace perfbench;

/// The metrics the JSON line carries (BENCHMARK.json lists the same names).
/// The wall-clock figures (tag_sps, tag_p50_ms, ...) are printed as human
/// lines only: see README.md, "Steadiness".
const std::vector<std::string> kEndToEnd = {
    "setup_s",   "tag_cpu_us", "learn_cpu_ms", "corpus_cpu_us",
    "entity_f1", "ok_frac",    "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "protocol.parse_us",        "protocol.format_us",
    "socket.overhead_us",       "client.gen_lag_ms",
    "router.submit_us",         "router.cache_hit_ratio",
    "router.cache_get_us",      "router.failovers",
    "router.learn_commit_ms",   "router.canary_ms",
    "router.cache_bytes",       "serve.queue_wait_us_p99",
    "serve.batch_size_mean",    "serve.coalesced_frac",
    "serve.decode_us_p50",      "features.encode_us",
    "crf.viterbi_us",           "crf.posteriors_us",
    "graphner.decode_one_us",   "graphner.decode_blended_us",
    "graphner.blend_extra_us",  "learner.learn_ms",
    "learner.snapshot_ms",      "learner.appended_vertices",
    "learner.patched_vertices", "learner.relaxations",
    "graph.knn_append_ms",      "graph.build_s",
    "propagation.incremental_ms", "propagation.full_s",
    "wal.append_us",            "test.crf_inference_s",
    "test.combine_decode_s",    "trace.overhead_us",
    "stage.unaccounted_us"};

struct Args {
  std::string workload;
  RunOptions options;
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.options.seed = std::stoull(value());
    else if (flag == "--seconds") args.options.seconds = std::stod(value());
    else if (flag == "--trace") args.options.trace = value() != "0";
    else if (flag == "--self-test") args.self_test = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!args.self_test && args.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (args.options.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The final JSON line; every selected metric must have been measured.
std::string result_json(const std::vector<std::pair<std::string, RunResult>>& runs,
                        const std::vector<std::string>& names) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const auto& [workload, run] : runs) {
    attempted += run.tally.sent;
    failed += run.tally.failed();
    for (const std::string& name : names) {
      const Metric* metric = run.report.find(name);
      if (metric == nullptr)
        throw std::runtime_error("metric " + name + " was not measured");
      const std::string key = runs.size() > 1 ? workload + "." + name : name;
      metrics << (first ? "" : ", ") << '"' << key << "\": {\"value\": "
              << json_number(metric->value) << ", \"unit\": \"" << metric->unit
              << "\"}";
      first = false;
    }
  }
  std::ostringstream out;
  out << "{\"correct\": true, \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {" << metrics.str() << "}}";
  return out.str();
}

/// One short pass and one with an injected wrong output; after each, the
/// process must hold no extra thread, child, listening socket or temp dir.
int self_test() {
  const WorkloadSpec& spec = workloads()[2];  // learn_mixed: every subsystem
  RunOptions options;
  options.seconds = 1.0;
  options.setup_repeats = 1;
  bool ok = true;
  for (const bool inject : {false, true}) {
    options.inject_mismatch = inject;
    bool threw = false;
    try {
      (void)run_workload(spec, options);
    } catch (const CheckFailed& e) {
      threw = true;
      std::cout << "self-test: check failed as " << (inject ? "injected" : "NOT expected")
                << ": " << e.what() << '\n';
    }
    const Leftovers left = inspect_leftovers(1);  // the watchdog thread
    const bool pass = threw == inject && left.clean();
    std::cout << "self-test: " << (inject ? "injected-failure" : "short") << " pass: "
              << (pass ? "ok" : "FAILED") << " (" << left.str() << ")\n";
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::vector<const WorkloadSpec*> selected;
    for (const auto& spec : workloads())
      if (args.workload == "all" || args.workload == spec.name) selected.push_back(&spec);
    if (!args.self_test && selected.empty())
      throw std::invalid_argument("unknown workload " + args.workload);

    const Watchdog watchdog(std::chrono::seconds(
        170 * std::max<std::size_t>(1, args.self_test ? 2 : selected.size())));
    if (args.self_test) return self_test();

    std::vector<std::pair<std::string, RunResult>> runs;
    for (const WorkloadSpec* spec : selected) {
      std::cout << "== workload " << spec->name << " seed " << args.options.seed
                << " seconds " << args.options.seconds << " trace "
                << (args.options.trace ? 1 : 0) << '\n';
      RunResult run = run_workload(*spec, args.options);
      run.report.print(spec->name + std::string("."));
      std::cout << "requests: " << run.tally.str() << '\n';
      runs.emplace_back(spec->name, std::move(run));
    }
    std::cout << result_json(runs, args.options.trace ? kPerLayer : kEndToEnd)
              << std::endl;
    return 0;
  } catch (const CheckFailed& e) {
    std::cout.flush();
    std::cerr << "perfbench: output check failed: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
