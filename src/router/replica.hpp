// InProcessReplica: one health-checked serving replica behind the router.
//
// It wraps one TaggingService over a shared_ptr'd const model and gives
// the router everything it programs against — submit, health,
// kill/revive, atomic model hot-swap, metrics. Lifecycle transitions
// replace the service under a mutex; the outgoing service is stopped
// *outside* the lock (stop() drains every queued request, so no future is
// ever abandoned) and its terminal counters are folded into a retained
// accumulator — per-replica metrics survive any number of kill/revive
// cycles, which is what lets CI assert exact conservation after a chaos
// run. A swap starts the new service before retiring the old one, so the
// replica never stops taking work mid-swap. Models are shared_ptr so N
// replicas can point at one mmap-loaded instance (one page-cache copy of
// the weights) and a swap frees the old model only when its last replica
// lets go.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/serve/service.hpp"
#include "src/serve/types.hpp"
#include "src/text/sentence.hpp"

namespace graphner::router {

/// The outcome of handing a request to a replica. When `accepted` is
/// false the replica took nothing (killed or stopped) and the caller
/// should try a sibling; otherwise `future` resolves like any service
/// submit and `fingerprint` identifies the model generation that will
/// answer it (the cache-key component).
struct ReplicaSubmission {
  std::future<serve::TagResponse> future;
  std::uint64_t fingerprint = 0;
  bool accepted = false;
};

class InProcessReplica {
 public:
  InProcessReplica(std::shared_ptr<const core::GraphNerModel> model,
                   serve::ServiceConfig config);
  ~InProcessReplica();

  InProcessReplica(const InProcessReplica&) = delete;
  InProcessReplica& operator=(const InProcessReplica&) = delete;

  /// `options.model` is already resolved by the router's registry — a
  /// replica serves exactly one model — and `options.key` carries the
  /// ingestion-time sentence key, so failover resubmits never re-derive
  /// it.
  [[nodiscard]] ReplicaSubmission submit(text::Sentence sentence,
                                         serve::SubmitOptions options);

  [[nodiscard]] bool healthy() const;
  /// Current model generation (stable while no swap is in flight).
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// The serving model's label inventory, for responses the router
  /// fabricates itself (cache hits never touch a service worker).
  [[nodiscard]] std::shared_ptr<const text::LabelSet> labels() const;

  /// Stop serving: drain what is queued, then reject everything until
  /// revive(). Safe to call concurrently with submits.
  void kill();
  /// Fresh worker pool over the current model.
  void revive();
  /// Atomic hot-swap to `model`: the new worker pool starts first, then
  /// replaces the old one in one step, so the replica stays healthy and
  /// accepting throughout; queued requests finish under the old model.
  /// A killed replica comes back up on `model`.
  void swap_model(std::shared_ptr<const core::GraphNerModel> model);

  /// This replica's counters/histograms (bare names: "submitted", ...),
  /// including everything accumulated by services retired through
  /// kill/revive/swap — monotone across lifecycle transitions.
  [[nodiscard]] obs::RegistrySnapshot metrics_snapshot() const;

  /// Terminal stop (drain + join); the replica stays unhealthy forever.
  void stop();

 private:
  /// Detach the live service (call with the lock held): it stays visible
  /// to metrics_snapshot through draining_ until retire() folds it.
  std::shared_ptr<serve::TaggingService> detach_locked(
      std::shared_ptr<serve::TaggingService> replacement);
  /// Stop a detached service (call without the lock) and, in one locked
  /// step, fold its terminal counters into retired_ and drop it from
  /// draining_.
  void retire(std::shared_ptr<serve::TaggingService> old);

  serve::ServiceConfig config_;
  mutable std::mutex mutex_;
  std::shared_ptr<const core::GraphNerModel> model_;
  /// shared_ptr, not unique: a concurrent submit may still hold the
  /// service while a swap retires it; the drain in stop() resolves every
  /// future before the last reference drops.
  std::shared_ptr<serve::TaggingService> service_;
  /// Lazily materialized copy of the model's label inventory, shared by
  /// every cache-hit response; invalidated on swap_model.
  mutable std::shared_ptr<const text::LabelSet> labels_;
  bool healthy_ = false;
  bool stopped_ = false;
  /// Counters of every retired service, merged by name.
  obs::RegistrySnapshot retired_;
  /// Services detached from service_ but not yet folded into retired_
  /// (their drain is in progress). Raw pointers: the retiring caller owns
  /// each one until retire() removes it, and a swap's wait for the old
  /// service's use count to drop must not see these.
  std::vector<serve::TaggingService*> draining_;
};

/// Merge `from` into `into`: counters add by (name, labels), gauges take
/// the newer value, histograms merge bucket-wise. The fold that keeps
/// replica metrics monotone across service retirements.
void merge_snapshot(obs::RegistrySnapshot& into,
                    const obs::RegistrySnapshot& from);

}  // namespace graphner::router
