// Serving metrics, redesigned onto the obs metric registry.
//
// ServiceMetrics owns a *private* obs::Registry (not Registry::global():
// every TaggingService — and every unit test — gets isolated counts) and
// resolves its instruments once at construction: sharded counters for the
// admission/outcome tallies, a gauge for queue depth, and histograms for
// queue-wait/decode latency (log10(1+us) bins, quantiles inverted back to
// microseconds at report time) and batch size. The per-worker slot +
// mutex plumbing the old implementation carried is gone — the registry's
// sharding gives the same uncontended-write discipline for free, and the
// worker id disappears from the observer API.
//
// snapshot() returns the registry's own obs::RegistrySnapshot (bare
// names: "submitted", "queue_wait_us", ...); scrape paths prefix it
// "serve." and feed it to the shared obs exporters.
#pragma once

#include <cstddef>

#include "src/obs/registry.hpp"
#include "src/serve/types.hpp"

namespace graphner::serve {

class ServiceMetrics {
 public:
  ServiceMetrics();
  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  // Observer hooks (any thread; a counter bump is one uncontended RMW).
  void on_submitted() noexcept { submitted_.inc(); }
  void on_rejected(Status status) noexcept;
  void on_batch(std::size_t batch_size) noexcept;
  void on_completed(double queue_us, double decode_us, bool error,
                    bool coalesced = false, bool degraded = false) noexcept;
  /// A queued request whose deadline passed before decode.
  void on_expired(double queue_us) noexcept;
  /// Gauges are observations, not state — settable through a const ref so
  /// scrape paths can refresh the depth right before snapshotting.
  void set_queue_depth(std::size_t depth) const noexcept {
    queue_depth_.set(static_cast<double>(depth));
  }

  [[nodiscard]] obs::RegistrySnapshot snapshot() const {
    return registry_.snapshot();
  }

 private:
  obs::Registry registry_;  ///< must precede the instrument references
  obs::Counter& submitted_;
  obs::Counter& rejected_overload_;
  obs::Counter& rejected_shutdown_;
  obs::Counter& rejected_unknown_model_;
  obs::Counter& completed_;
  obs::Counter& errors_;
  obs::Counter& batches_;
  obs::Counter& coalesced_;
  obs::Counter& deadline_expired_;
  obs::Counter& degraded_;
  obs::Gauge& queue_depth_;
  obs::Histogram& queue_wait_;
  obs::Histogram& decode_;
  obs::Histogram& batch_size_;
};

/// Append what every scrape carries besides a tier's own registries: the
/// process-global registry (training/propagation/checkpoint instruments)
/// and the fault-injector fire counts as "fault.<point>.{calls,fires}".
void append_process_metrics(obs::RegistrySnapshot& out);

}  // namespace graphner::serve
