// Sharded multi-replica tagging tier: router + N in-process replicas.
// This is the serving front end; one replica with the cache off is the
// plain single-service server.
//
//   graphner_router --dir corpus/ --save-model m.gnm --replicas 1 --no-cache
//       train, persist, then serve from one worker pool with no cache
//   graphner_router --load-model m.gnm --replicas 4 --port 8765
//       serve the model from 4 replicas behind a consistent-hash router
//       with the cross-request decode cache on
//   graphner_router --load-model m.gnm --save-mmap m.gmm
//       convert a text model to the zero-copy mmap format and exit
//   graphner_router --load-model m.gmm --replicas 2 --offline sents.txt
//       no server: route the file through the replica tier and print the
//       exact response lines a client would see — CI diffs this against
//       graphner_client output to prove online == offline
//   graphner_router --load-model gene.gmm --add-model jnlpba=jnlpba.gmm \
//                   --quota jnlpba=100/50
//       multi-tenant: serve two resident models; requests pick one per
//       request ('#jnlpba' id suffix, JSON "model", or "#MODEL jnlpba")
//       and the jnlpba tenant is rate-limited (DESIGN.md §14)
//
// --load-model auto-sniffs the format (text "graphner-model" vs mmap
// "GNERMMAP"); with the mmap format all replicas share one page-cache
// copy of the weights. The wire protocol (src/serve/protocol.hpp) carries
// tagging requests, "#METRICS" scrapes, the "#REPLICA
// kill|revive|swap|status" admin line (graphner_client --admin) driving
// the chaos drill and hot-swap, and — with --learn — the "#LEARN
// text|file|status|rollback" online-learning line (DESIGN.md §12): new
// sentences become k-NN graph vertices incrementally, a localized
// re-propagation refreshes their label distributions, and the learned
// fork is hot-swapped into every replica.
//
// Durable, self-protecting learning (DESIGN.md §13): --learn-wal-dir
// journals every committed batch before the swap and replays it on
// restart to byte-identical learned state; --canary gates each fork on a
// held-out decode set (drift past --canary-max-disagreement quarantines
// the batch); "#LEARN rollback" restores the previous generation
// tier-wide. --health-probe-ms starts the replica health supervisor:
// sentinel probes open per-replica circuit breakers after
// --health-failures consecutive misses and close them again half-open.
//
// SIGINT/SIGTERM trigger a graceful stop: the listener closes, every
// replica drains, and the final metrics JSON is printed to stderr.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/corpus/bc2gm_io.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/obs/export.hpp"
#include "src/router/router.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/socket_server.hpp"
#include "src/util/cli.hpp"
#include "src/util/fault.hpp"

namespace {

using namespace graphner;

std::atomic<int> g_signal{0};

void handle_signal(int sig) { g_signal.store(sig); }

core::GraphNerModel obtain_model(const std::string& load_path,
                                 const std::string& corpus_dir,
                                 const std::string& profile,
                                 const std::string& checkpoint_dir) {
  if (!load_path.empty()) return core::GraphNerModel::load_auto_file(load_path);
  const auto data = corpus::load_corpus(corpus_dir);
  core::GraphNerConfig config;
  config.profile = (profile == "chemdner") ? core::CrfProfile::kBannerChemDner
                                           : core::CrfProfile::kBanner;
  config.checkpoint_dir = checkpoint_dir;
  std::vector<text::Sentence> unlabelled;
  for (const auto& s : data.test) {
    text::Sentence stripped;
    stripped.id = s.id;
    stripped.tokens = s.tokens;
    unlabelled.push_back(std::move(stripped));
  }
  return core::GraphNerModel::train(data.train, unlabelled, config);
}

/// Split a comma-separated flag value; an empty value yields nothing.
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::istringstream in(value);
  std::string entry;
  while (std::getline(in, entry, ','))
    if (!entry.empty()) out.push_back(entry);
  return out;
}

/// One sentence per line, whitespace-tokenized; ids are line<N> to match
/// graphner_client's numbering.
std::vector<text::Sentence> read_sentence_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<text::Sentence> out;
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    text::Sentence sentence;
    sentence.id = "line" + std::to_string(index++);
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) sentence.tokens.push_back(std::move(token));
    out.push_back(std::move(sentence));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("graphner_router", "sharded multi-replica tagging tier");
  auto dir = cli.flag<std::string>("dir", "corpus_out", "corpus directory (training)");
  auto profile = cli.flag<std::string>("profile", "banner", "banner | chemdner");
  auto load_model = cli.flag<std::string>(
      "load-model", "", "serve a saved model (text or mmap, auto-sniffed)");
  auto save_model = cli.flag<std::string>("save-model", "", "persist after training");
  auto save_mmap = cli.flag<std::string>(
      "save-mmap", "", "write the zero-copy mmap model format and exit");
  auto offline = cli.flag<std::string>(
      "offline", "", "route this sentence file offline and exit (no server)");
  auto port = cli.flag<std::uint16_t>("port", 8765, "TCP port (0 = ephemeral)");
  auto replicas = cli.flag<std::size_t>("replicas", 2, "replica worker pools");
  auto vnodes = cli.flag<std::size_t>(
      "vnodes", 64, "virtual nodes per replica on the consistent-hash ring");
  auto no_cache = cli.toggle("no-cache", "disable the cross-request decode cache");
  auto cache_capacity = cli.flag<std::size_t>(
      "cache-capacity", 4096, "decode cache entries across all shards");
  auto workers = cli.flag<std::size_t>(
      "workers", 0, "decode workers per replica (0 = cores)");
  auto max_batch = cli.flag<std::size_t>("max-batch", 32, "micro-batch cap");
  auto max_queue = cli.flag<std::size_t>("max-queue", 1024, "queue depth bound");
  auto delay_us = cli.flag<long>("delay-us", 2000, "max batch-formation delay");
  auto checkpoint_dir = cli.flag<std::string>(
      "checkpoint-dir", "",
      "crash-safe per-phase training checkpoints; rerun to resume");
  auto deadline_ms = cli.flag<long>(
      "default-deadline-ms", 0,
      "shed requests queued longer than this (0 = no default deadline)");
  auto blend = cli.toggle(
      "blend", "decode with the GraphNER posterior blend (degradable)");
  auto degrade_high = cli.flag<std::size_t>(
      "degrade-high", 0,
      "queue depth that switches blend decode to plain Viterbi (0 = never)");
  auto degrade_low = cli.flag<std::size_t>(
      "degrade-low", 0, "queue depth that restores blend decode");
  auto metrics_every = cli.flag<long>(
      "metrics-dump-every", 0,
      "dump the Prometheus metrics snapshot to stderr every N seconds (0 = off)");
  auto learn = cli.toggle(
      "learn", "enable the online #LEARN path (incremental graph + "
               "localized re-propagation, hot-swapped into every replica)");
  auto learn_seed = cli.flag<std::string>(
      "learn-seed", "",
      "sentence file absorbed as the first learn batch before serving");
  auto learn_tolerance = cli.flag<double>(
      "learn-tolerance", 1e-6, "residual tolerance of localized re-propagation");
  auto learn_wal_dir = cli.flag<std::string>(
      "learn-wal-dir", "",
      "durable learning: journal committed #LEARN batches here and replay "
      "them on restart (DESIGN.md §13; empty = in-memory only)");
  auto learn_snapshot_every = cli.flag<std::size_t>(
      "learn-snapshot-every", 32,
      "committed batches between learn WAL snapshot compactions");
  auto learn_max_file_bytes = cli.flag<std::uint64_t>(
      "learn-max-file-bytes", 8ULL << 20,
      "reject '#LEARN file' inputs larger than this many bytes");
  auto canary = cli.flag<std::string>(
      "canary", "",
      "held-out canary sentence file every learned fork must decode "
      "before swapping in (empty = gate off)");
  auto canary_max_disagreement = cli.flag<double>(
      "canary-max-disagreement", 0.25,
      "max fraction of canary sentences whose tags may change per batch; "
      "drift past this quarantines the batch");
  auto health_probe_ms = cli.flag<long>(
      "health-probe-ms", 0,
      "replica health supervisor probe interval (0 = supervisor off)");
  auto health_deadline_ms = cli.flag<long>(
      "health-probe-deadline-ms", 250, "deadline for each sentinel probe");
  auto health_failures = cli.flag<std::size_t>(
      "health-failures", 3,
      "consecutive probe failures that open a replica's circuit breaker");
  auto add_models = cli.flag<std::string>(
      "add-model", "",
      "additional resident models, 'name=path[,name=path...]' — each is "
      "served under its wire name ('#name' id suffix / JSON \"model\" / "
      "\"#MODEL name\"); the --load-model model stays the default tenant");
  auto tenant_replicas = cli.flag<std::size_t>(
      "tenant-replicas", 1, "replica pools per --add-model tenant");
  auto quotas = cli.flag<std::string>(
      "quota", "",
      "per-tenant token-bucket quotas, 'name=rate/burst[,...]' (rate "
      "tokens/s refill, burst bucket size; over-quota requests answer "
      "QUOTA_EXCEEDED)");
  cli.parse(argc, argv);

  try {
    auto model = std::make_shared<core::GraphNerModel>(
        obtain_model(*load_model, *dir, *profile, *checkpoint_dir));
    if (!save_model->empty()) {
      model->save_file(*save_model);  // atomic: tmp + fsync + rename
      std::cerr << "saved model to " << *save_model << '\n';
    }
    if (!save_mmap->empty()) {
      model->save_mmap_file(*save_mmap);
      std::cerr << "saved mmap model to " << *save_mmap << " (fingerprint "
                << std::hex << model->fingerprint() << std::dec << ")\n";
      return 0;
    }

    router::RouterConfig router_config;
    router_config.replicas = *replicas;
    router_config.vnodes = *vnodes;
    router_config.cache_enabled = !*no_cache;
    router_config.cache.capacity = *cache_capacity;
    router_config.replica_service.workers = *workers;
    router_config.replica_service.batching.max_batch = *max_batch;
    router_config.replica_service.batching.max_queue_depth = *max_queue;
    router_config.replica_service.batching.max_delay =
        std::chrono::microseconds(*delay_us);
    router_config.replica_service.default_deadline =
        std::chrono::milliseconds(*deadline_ms);
    router_config.replica_service.blend_decode = *blend;
    router_config.replica_service.degrade.high_watermark = *degrade_high;
    router_config.replica_service.degrade.low_watermark = *degrade_low;
    router_config.learn_enabled =
        *learn || !learn_seed->empty() || !learn_wal_dir->empty();
    router_config.learn.tolerance = *learn_tolerance;
    router_config.learn_wal_dir = *learn_wal_dir;
    router_config.learn_snapshot_every = *learn_snapshot_every;
    router_config.learn_max_file_bytes = *learn_max_file_bytes;
    router_config.canary_max_disagreement = *canary_max_disagreement;
    if (!canary->empty()) router_config.canary = read_sentence_lines(*canary);
    router_config.health_probe_interval =
        std::chrono::milliseconds(*health_probe_ms);
    router_config.health_probe_deadline =
        std::chrono::milliseconds(*health_deadline_ms);
    router_config.health_failure_threshold = *health_failures;
    router_config.tenant_replicas = *tenant_replicas;
    router::Router router(model, router_config);

    // Additional resident models: every entry becomes a named tenant with
    // its own replica pool, selectable per request on the wire.
    for (const std::string& entry : split_csv(*add_models)) {
      const std::size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size())
        throw std::runtime_error("--add-model entry '" + entry +
                                 "' is not name=path");
      const std::string name = entry.substr(0, eq);
      const std::string path = entry.substr(eq + 1);
      router.add_model(name, std::make_shared<core::GraphNerModel>(
                                 core::GraphNerModel::load_auto_file(path)));
      std::cerr << "graphner_router: model " << name << " resident from "
                << path << '\n';
    }
    for (const std::string& entry : split_csv(*quotas)) {
      const std::size_t eq = entry.find('=');
      const std::size_t slash = entry.find('/', eq == std::string::npos ? 0 : eq);
      if (eq == std::string::npos || slash == std::string::npos)
        throw std::runtime_error("--quota entry '" + entry +
                                 "' is not name=rate/burst");
      const std::string reply =
          router.admin("quota " + entry.substr(0, eq) + ' ' +
                       entry.substr(eq + 1, slash - eq - 1) + ' ' +
                       entry.substr(slash + 1));
      if (reply.rfind("OK", 0) != 0) throw std::runtime_error(reply);
      std::cerr << "graphner_router: " << reply;
    }

    if (!learn_seed->empty()) {
      // The seed corpus goes through the exact admin path a client's
      // "#LEARN file" would take, so serving starts from a learned tier.
      // With a WAL dir, a restart that already replayed learned state
      // skips the seed — replay owns the learned history, not the flag.
      const router::LearnLog* learn_log = router.learn_log();
      const bool recovered =
          learn_log != nullptr && (learn_log->recovery().snapshot_loaded ||
                                   learn_log->recovery().replayed_batches > 0);
      if (recovered) {
        std::cerr << "graphner_router: learn seed skipped (WAL replay "
                     "recovered seq "
                  << learn_log->last_seq() << ")\n";
      } else {
        const std::string reply = router.admin("learn file " + *learn_seed);
        if (reply.rfind("OK", 0) != 0)
          throw std::runtime_error("learn seed: " + reply);
        std::cerr << "graphner_router: " << reply;
      }
    }

    if (!offline->empty()) {
      // Offline reference pass through the *same* routed tier: identical
      // normalization, hashing and decode as the online path, printed in
      // the server's TSV response format.
      const auto sentences = read_sentence_lines(*offline);
      std::vector<std::future<serve::TagResponse>> futures;
      futures.reserve(sentences.size());
      for (const auto& sentence : sentences) {
        text::Sentence normalized = sentence;
        serve::normalize_tokens(normalized.tokens);
        futures.push_back(router.submit(std::move(normalized)));
      }
      for (std::size_t i = 0; i < sentences.size(); ++i) {
        serve::Request request;
        request.id = sentences[i].id;
        std::cout << serve::format_response(request, futures[i].get()) << '\n';
      }
      router.stop();
      return 0;
    }

    serve::SocketServerConfig socket_config;
    socket_config.port = *port;
    serve::SocketServer server(router, socket_config);
    server.start();
    std::cerr << "graphner_router: ready on port " << server.port() << " ("
              << *replicas << " replicas, cache "
              << (*no_cache ? "off" : "on") << "; Ctrl-C for graceful stop)\n";

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    auto last_dump = std::chrono::steady_clock::now();
    const std::chrono::seconds dump_period(*metrics_every > 0 ? *metrics_every : 0);
    while (g_signal.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (dump_period.count() > 0 &&
          std::chrono::steady_clock::now() - last_dump >= dump_period) {
        last_dump = std::chrono::steady_clock::now();
        std::cerr << obs::export_prometheus(router.observability_snapshot());
      }
    }

    std::cerr << "graphner_router: stopping (signal " << g_signal.load() << ")\n";
    server.stop();
    router.stop();
    std::cerr << obs::export_json(router.observability_snapshot()) << '\n';
    const std::string faults = util::FaultInjector::instance().summary();
    if (!faults.empty()) std::cerr << "injected faults:\n" << faults;
  } catch (const std::exception& e) {
    std::cerr << "graphner_router: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
