// InProcessReplica: one health-checked serving replica behind the router.
//
// It owns one TaggingService from construction to stop() — one worker
// pool, queue, set of warm scratches and metrics registry for its whole
// life — and gives the router everything it programs against: submit,
// health, kill/revive, model hot-swap, metrics. A hot-swap is the
// service's generation exchange (TaggingService::swap_model): no thread
// starts, nothing waits, and queued requests finish under the model they
// were admitted with. kill() and revive() only flip admission; work
// already queued keeps decoding on the live workers, so nothing is
// dropped. Per-replica metrics are the one service registry, monotone by
// construction. Models are shared_ptr so N replicas can point at one
// mmap-loaded instance (one page-cache copy of the weights), and a swap
// frees the old model once its last replica and request let go.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>

#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/serve/service.hpp"
#include "src/serve/types.hpp"
#include "src/text/sentence.hpp"

namespace graphner::router {

/// The outcome of handing a request to a replica. When `accepted` is
/// false the replica took nothing (killed or stopped) and the caller
/// should try a sibling; otherwise `future` resolves like any service
/// submit, its response naming the generation that decoded it.
struct ReplicaSubmission {
  std::future<serve::TagResponse> future;
  bool accepted = false;
};

class InProcessReplica {
 public:
  InProcessReplica(std::shared_ptr<const core::GraphNerModel> model,
                   serve::ServiceConfig config);

  InProcessReplica(const InProcessReplica&) = delete;
  InProcessReplica& operator=(const InProcessReplica&) = delete;

  /// `options.model` is already resolved by the router's registry — a
  /// replica serves exactly one model — and `options.key` carries the
  /// ingestion-time sentence key, so failover resubmits never re-derive
  /// it.
  [[nodiscard]] ReplicaSubmission submit(text::Sentence sentence,
                                         serve::SubmitOptions options);

  [[nodiscard]] bool healthy() const noexcept {
    return state_.load(std::memory_order_acquire) == State::kUp;
  }
  /// The generation new submissions decode under: its model fingerprint
  /// is the cache-key component, its labels name the tags of responses
  /// the router fabricates itself (cache hits never touch a worker).
  [[nodiscard]] std::shared_ptr<const serve::ModelGeneration> generation() const {
    return service_.generation();
  }
  [[nodiscard]] std::uint64_t fingerprint() const {
    return generation()->model->fingerprint();
  }

  /// Refuse new work until revive(); queued requests still finish.
  void kill() noexcept;
  /// Admit work again (no-op once stopped).
  void revive() noexcept;
  /// Hot-swap to `model`: returns at once, admission unchanged, queued
  /// requests finish under the model they were admitted with.
  void swap_model(std::shared_ptr<const core::GraphNerModel> model) {
    service_.swap_model(std::move(model));
  }

  /// This replica's counters/histograms (bare names: "submitted", ...):
  /// one registry for the replica's lifetime.
  [[nodiscard]] obs::RegistrySnapshot metrics_snapshot() const {
    return service_.metrics();
  }

  /// Terminal stop (drain + join); the replica stays unhealthy forever.
  void stop();

 private:
  enum class State { kUp, kDown, kStopped };

  serve::TaggingService service_;
  std::atomic<State> state_{State::kUp};
};

}  // namespace graphner::router
