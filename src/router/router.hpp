// Router: the sharded multi-replica serving tier (DESIGN.md §11).
//
// A Router is a TagService over N InProcessReplicas, so SocketServer fronts
// it exactly like a single TaggingService. Per request:
//
//   1. consistent-hash the normalized sentence key onto the replica ring
//      (repeats pin to a warm replica and its coalescing cache);
//   2. consult the cross-request decode cache (sentence key + model
//      fingerprint) — a hit answers in O(1) with no replica touched;
//   3. on a miss, submit to the owner replica (skipping unhealthy ones)
//      and return a lazily-evaluated future that, when waited on,
//      fails over to ring-order siblings with util::Backoff if the
//      replica died mid-request, and inserts OK responses into the cache.
//
// Multi-tenancy (DESIGN.md §14): a ModelRegistry maps wire model names
// onto resident models. The default tenant aliases the router's own
// replica set — bare requests are byte-identical to the pre-tenancy tier —
// while "#REPLICA model add|swap|drop|list <name> [<path>]" manages
// additional resident models, each with its own replica pool and ring.
// The cache identity gains the tenant dimension (sentence key + model
// name + fingerprint), so tenants can never observe each
// other's entries even under fingerprint collision. Per-tenant
// token-bucket quotas ("#REPLICA quota <name> <rate> <burst>") bounce
// over-quota requests with the structured QUOTA_EXCEEDED status before
// they reach a replica; unknown selectors answer UNKNOWN_MODEL. Neither
// counts into router.requests — the conservation laws below are over
// admitted requests only.
//
// Administration rides the wire as "#REPLICA kill|revive|swap|status"
// (TagService::admin): kill/revive drive the chaos drill, swap hot-swaps
// one replica's model from a file (text or mmap format, auto-sniffed) and
// invalidates the cache generation no replica serves anymore. With
// learn_enabled, "#LEARN text|file|status|rollback" (wire sugar for
// "#REPLICA learn ...") drives the online-learning path: the batch is
// absorbed by an OnlineLearner (incremental k-NN append + localized
// re-propagation, DESIGN.md §12), gated by a canary decode, journaled to
// the learn WAL (LearnLog — crash replay reaches byte-identical learned
// state, DESIGN.md §13), and only then hot-swapped into every replica
// through the same fingerprint/cache-invalidation machinery. rollback
// retroactively quarantines the newest committed batch and restores the
// previous generation tier-wide.
//
// With health_probe_interval > 0 a HealthSupervisor probes every replica
// with sentinel decodes; consecutive failures open a per-replica circuit
// breaker that routes traffic around the replica until a half-open probe
// (backed off, auto-reviving dead replicas) closes it again.
//
// Metrics: router.* and cache.* from the router's own registry, each
// replica's counters under "replica.<i>." (monotone across kill/revive),
// plus the process-global registry and fault counters — one scrape shows
// the whole tier. Conservation laws CI asserts after a drain:
//
//   router.requests == cache.hits + cache.misses
//   sum_i replica.<i>.submitted + sum_n,i tenant.<n>.replica.<i>.submitted ==
//       cache.misses - router.unavailable + router.failovers
//   tenant.<n>.requests == tenant.<n>.cache_hits + tenant.<n>.cache_misses
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "src/graphner/learner.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/router/hash_ring.hpp"
#include "src/router/learn_log.hpp"
#include "src/router/lru_cache.hpp"
#include "src/router/model_registry.hpp"
#include "src/router/replica.hpp"
#include "src/router/supervisor.hpp"
#include "src/serve/tag_service.hpp"
#include "src/util/fault.hpp"

namespace graphner::router {

struct RouterConfig {
  std::size_t replicas = 2;
  /// Worker pool / batching / deadline configuration of every replica.
  serve::ServiceConfig replica_service;
  bool cache_enabled = true;
  LruCacheConfig cache;
  /// Virtual nodes per replica on the consistent-hash ring.
  std::size_t vnodes = 64;
  /// Replicas per *added* tenant model ("#REPLICA model add"); the
  /// default model keeps `replicas`. Tenant replica pools share the
  /// replica_service configuration.
  std::size_t tenant_replicas = 1;
  /// Backoff between failover attempts once the whole ring has been
  /// walked without an answer (a replica may be mid-revive).
  util::BackoffPolicy failover_backoff{std::chrono::milliseconds(10),
                                       std::chrono::milliseconds(200),
                                       2.0,
                                       0.2,
                                       3};
  /// Enable the online "#LEARN" path: the router keeps an OnlineLearner
  /// over the initial model and hot-swaps learned forks into every
  /// replica after each absorbed batch.
  bool learn_enabled = false;
  core::OnlineLearnerConfig learn;
  /// Durable learning (DESIGN.md §13): directory for the learn WAL +
  /// snapshots. Empty = in-memory only (learned state dies with the
  /// process); set, committed batches are journaled before any swap and
  /// replayed on startup to byte-identical learned state.
  std::string learn_wal_dir;
  /// Committed batches between snapshot compactions of the learn WAL.
  std::size_t learn_snapshot_every = 32;
  /// Held-out canary sentences every learned fork must decode before it
  /// swaps in; empty disables the gate.
  std::vector<text::Sentence> canary;
  /// Max fraction of canary sentences whose blended tags may differ
  /// between the serving generation and the fork. A batch that drifts
  /// past this is quarantined (journaled, skipped on replay) and never
  /// reaches a replica. Negative = quarantine every gated batch
  /// (deterministic chaos drills).
  double canary_max_disagreement = 0.25;
  /// "#LEARN file" ingestion cap — larger files are rejected unread.
  std::uint64_t learn_max_file_bytes = 8ULL << 20;
  /// Learned generations retained for "#LEARN rollback" (min 2 once a
  /// batch commits: current + previous).
  std::size_t learn_generations = 4;
  /// Health supervisor probe interval; 0 (default) disables the
  /// supervisor entirely — replica health stays manual (#REPLICA
  /// kill/revive) exactly as before.
  std::chrono::milliseconds health_probe_interval{0};
  /// Deadline for each sentinel probe decode.
  std::chrono::milliseconds health_probe_deadline{250};
  /// Consecutive probe failures that open a replica's circuit breaker.
  std::size_t health_failure_threshold = 3;
  /// Half-open re-probe schedule for open breakers.
  util::BackoffPolicy health_revive_backoff{std::chrono::milliseconds(100),
                                            std::chrono::milliseconds(2000),
                                            2.0,
                                            0.2,
                                            1 << 30};
};

class Router : public serve::TagService {
 public:
  /// All replicas start on `model`. The model is shared, not copied —
  /// with an mmap-loaded model the replicas share one page-cache copy of
  /// the weights.
  Router(std::shared_ptr<const core::GraphNerModel> model, RouterConfig config);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] std::future<serve::TagResponse> submit(
      text::Sentence sentence, serve::SubmitOptions options) override;

  [[nodiscard]] obs::RegistrySnapshot observability_snapshot() const override;

  /// The admin verb table documented in protocol.hpp: replica lifecycle
  /// (kill/revive/swap/status), tenant models (model add|swap|drop|list,
  /// quota), and the "#LEARN"-routed learn subtree when learn_enabled.
  [[nodiscard]] std::string admin(const std::string& command) override;

  /// In-process mirror of "#REPLICA model add": register an additional
  /// resident model under `name`. Throws std::invalid_argument on an
  /// invalid or already-resident name.
  void add_model(const std::string& name,
                 std::shared_ptr<const core::GraphNerModel> model);

  /// The tenant registry (default tenant + every added model).
  [[nodiscard]] const ModelRegistry& models() const noexcept { return models_; }

  /// The online learner, nullptr unless config.learn_enabled.
  [[nodiscard]] const core::OnlineLearner* learner() const noexcept {
    return learn_log_ ? &learn_log_->learner() : nullptr;
  }
  /// The durable learn journal, nullptr unless config.learn_enabled.
  [[nodiscard]] const LearnLog* learn_log() const noexcept {
    return learn_log_.get();
  }
  /// Per-replica circuit breakers (opened by the health supervisor;
  /// exposed so tests can drive breaker states deterministically).
  [[nodiscard]] BreakerBoard& breakers() noexcept { return breakers_; }
  /// The health supervisor, nullptr unless health_probe_interval > 0.
  [[nodiscard]] HealthSupervisor* supervisor() noexcept {
    return supervisor_.get();
  }

  [[nodiscard]] std::size_t replica_count() const noexcept {
    return replicas_.size();
  }
  [[nodiscard]] InProcessReplica& replica(std::size_t i) {
    return *replicas_[i];
  }
  [[nodiscard]] ShardedLruCache& cache() noexcept { return cache_; }

  /// Drain and join every replica. Idempotent; also run by the destructor.
  void stop();

 private:
  /// The synchronous tail of a request: wait on the primary submission,
  /// fail over to siblings *within the tenant's pool* if the replica died,
  /// cache OK responses under the tenant-scoped base key.
  [[nodiscard]] serve::TagResponse resolve(ReplicaSubmission primary,
                                           std::size_t used,
                                           std::vector<std::size_t> order,
                                           text::Sentence sentence,
                                           serve::SubmitOptions options,
                                           std::string base_key,
                                           std::shared_ptr<Tenant> tenant);

  /// The replica pool a tenant routes over: the router's own replicas_
  /// for the default tenant (see ModelRegistry), the tenant's private
  /// pool otherwise.
  [[nodiscard]] std::vector<std::unique_ptr<InProcessReplica>>& pool_of(
      Tenant& tenant) noexcept {
    return tenant.is_default ? replicas_ : tenant.replicas;
  }
  [[nodiscard]] HashRing& ring_of(Tenant& tenant) noexcept {
    return tenant.is_default ? ring_ : *tenant.ring;
  }

  [[nodiscard]] static bool needs_failover(serve::Status status) noexcept {
    // A stopped replica answers SHUTDOWN: a replica-local condition a
    // sibling can absorb. OVERLOADED/DEADLINE_EXCEEDED are load signals
    // that must reach the client's own backoff instead of multiplying
    // load here.
    return status == serve::Status::kShutdown;
  }

  RouterConfig config_;
  obs::Registry registry_;
  /// Tenant registry; declared after registry_ (its instruments live
  /// there) and before cache_/replicas_ so teardown order is safe.
  ModelRegistry models_;
  ShardedLruCache cache_;
  std::vector<std::unique_ptr<InProcessReplica>> replicas_;
  HashRing ring_;
  obs::Counter& requests_;
  obs::Counter& failovers_;
  obs::Counter& unavailable_;
  obs::Counter& swaps_;
  obs::Counter& cache_misses_;  ///< same instrument the cache counts into
  obs::Counter& unknown_model_;  ///< UNKNOWN_MODEL rejections (pre-admission)
  obs::Counter& quota_rejected_;  ///< QUOTA_EXCEEDED rejections (pre-admission)
  /// True when `idx` may take traffic: healthy and its breaker is not
  /// open — unless EVERY breaker is open, in which case breakers are
  /// ignored (fail-static: when the probe path itself is what broke,
  /// routing around everything would turn a monitoring bug into an
  /// outage).
  [[nodiscard]] bool routable(std::size_t idx, bool ignore_breakers) const {
    return replicas_[idx]->healthy() &&
           (ignore_breakers || !breakers_.is_open(idx));
  }
  /// Tenant-aware routability: circuit breakers are a property of the
  /// default pool (the supervisor only probes replicas_); added tenants'
  /// replicas route on health alone.
  [[nodiscard]] bool routable_in(const Tenant& tenant, std::size_t idx,
                                 bool ignore_breakers) const {
    if (tenant.is_default) return routable(idx, ignore_breakers);
    return tenant.replicas[idx]->healthy();
  }
  [[nodiscard]] bool all_breakers_open() const {
    return breakers_.open_count() >= replicas_.size();
  }
  /// Fraction of canary sentences whose blended decode differs between
  /// `current` and `fork` (the swap gate; call with canary non-empty).
  [[nodiscard]] double canary_disagreement(
      const core::GraphNerModel& current, const core::GraphNerModel& fork);
  /// The "#REPLICA learn ..." admin subtree (swap_mutex_ held by caller's
  /// command dispatch where needed — see implementation).
  [[nodiscard]] std::string admin_learn(std::istringstream& in);
  /// The "#REPLICA model add|swap|drop|list" tenant-management subtree.
  [[nodiscard]] std::string admin_model(std::istringstream& in);
  /// The "#REPLICA quota <model> <rate> <burst> | <model> off" subtree.
  [[nodiscard]] std::string admin_quota(std::istringstream& in);
  /// Swap `model` into every replica of `pool` and drop cache generations
  /// the pool no longer serves; returns entries invalidated. Caller holds
  /// swap_mutex_.
  std::size_t swap_pool(std::vector<std::unique_ptr<InProcessReplica>>& pool,
                        const std::shared_ptr<const core::GraphNerModel>& model);
  /// swap_pool over the default pool (the learn/rollback swap path).
  std::size_t swap_all_replicas(
      const std::shared_ptr<const core::GraphNerModel>& model);
  std::unique_ptr<LearnLog> learn_log_;
  /// Bounded history of learned generations (sequence that produced each
  /// + the swapped model); back() is what the tier currently serves.
  struct Generation {
    std::uint64_t seq = 0;
    std::shared_ptr<const core::GraphNerModel> model;
  };
  std::deque<Generation> generations_;
  BreakerBoard breakers_;
  std::unique_ptr<HealthSupervisor> supervisor_;
  /// Serializes every model-swap admin path — learn batches + fork swaps
  /// AND single-replica "#REPLICA swap" — so interleaved swaps (each admin
  /// command runs on its own connection thread) cannot invalidate a
  /// generation mid-sweep or strand an orphaned cache generation.
  std::mutex swap_mutex_;
  bool stopped_ = false;
  std::mutex stop_mutex_;
};

}  // namespace graphner::router
