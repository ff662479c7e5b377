// ModelRegistry: named resident models — the tenant dimension (§14).
//
// The registry maps wire model names onto serving state: each tenant owns
// the resident model generation, its own replica set + consistent-hash
// ring, a token-bucket quota, and per-tenant counters. The *default*
// tenant is special — it aliases the router's original replica set (the
// one "#REPLICA kill/revive/swap <i>", the health supervisor and the
// online-learning path operate on), so every pre-tenancy behaviour is
// byte-identical for clients that never name a model. Added tenants
// ("#REPLICA model add <name> <path>") get their own InProcessReplica
// pool, sized RouterConfig::tenant_replicas.
//
// Concurrency: the map is mutated only by rare admin verbs; the hot
// submit path takes the registry mutex once to copy a shared_ptr<Tenant>.
// A tenant handed out stays alive (and its counters valid) for as long as
// any in-flight request holds it, even across a concurrent "model drop" —
// the dropped tenant's replicas reject new work after stop(), so late
// holders resolve to UNAVAILABLE rather than touching freed state.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/token_bucket.hpp"
#include "src/router/hash_ring.hpp"
#include "src/router/replica.hpp"
#include "src/serve/service.hpp"

namespace graphner::router {

/// Per-tenant instruments, resolved once at registration. The names are
/// "tenant.<name>.requests" etc., so one "#METRICS TSV" scrape shows every
/// tenant side by side and CI can awk conservation per tenant:
///   tenant.<n>.requests == tenant.<n>.cache_hits + tenant.<n>.cache_misses
struct TenantMetrics {
  obs::Counter& requests;       ///< admitted (past quota + model checks)
  obs::Counter& cache_hits;     ///< answered from the cross-request cache
  obs::Counter& cache_misses;   ///< everything admitted that was not a hit
  obs::Counter& deadline_drops; ///< resolved DEADLINE_EXCEEDED
  obs::Counter& quota_rejected; ///< bounced by the token bucket

  TenantMetrics(obs::Registry& registry, const std::string& tenant);
};

/// One resident model and everything that serves it.
struct Tenant {
  std::string name;
  /// True for the registry's default tenant, whose replicas/ring live on
  /// the Router itself (see file comment); `replicas`/`ring` stay empty.
  bool is_default = false;
  std::shared_ptr<const core::GraphNerModel> model;  ///< null for default
  std::vector<std::unique_ptr<InProcessReplica>> replicas;
  std::unique_ptr<HashRing> ring;
  obs::TokenBucket quota;
  TenantMetrics metrics;

  Tenant(std::string tenant_name, bool tenant_is_default,
         obs::Registry& registry)
      : name(std::move(tenant_name)),
        is_default(tenant_is_default),
        metrics(registry, name) {}
};

class ModelRegistry {
 public:
  /// Registers the default tenant immediately. `registry` must outlive
  /// the ModelRegistry (it owns every tenant's instruments).
  explicit ModelRegistry(obs::Registry& registry);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Resolve a wire selector: "" and "default" both land on the default
  /// tenant (the bare-request alias); anything else must be resident.
  /// nullptr = unknown model.
  [[nodiscard]] std::shared_ptr<Tenant> resolve(const std::string& name) const;

  /// Register `model` under `name` with its own replica pool (`replicas`
  /// InProcessReplicas over `service`) and ring. Throws
  /// std::invalid_argument on an invalid or already-resident name.
  std::shared_ptr<Tenant> add(const std::string& name,
                              std::shared_ptr<const core::GraphNerModel> model,
                              std::size_t replicas,
                              const serve::ServiceConfig& service,
                              std::size_t vnodes);

  /// Unregister `name` and return its tenant for teardown (the caller
  /// stops the replicas and sweeps the cache outside the registry lock).
  /// nullptr when absent; the default tenant cannot be removed.
  std::shared_ptr<Tenant> remove(const std::string& name);

  /// Every resident tenant, sorted by name (default first).
  [[nodiscard]] std::vector<std::shared_ptr<Tenant>> list() const;

  [[nodiscard]] std::size_t size() const;

 private:
  obs::Registry& registry_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
};

}  // namespace graphner::router
