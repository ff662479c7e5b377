// TaggingService: an always-on concurrent tagger over one model generation.
//
// A fixed pool of decode workers drains the BatchQueue; each worker owns a
// warm CRF lattice Scratch and a reusable feature-encode buffer, so the
// steady state decodes with zero per-sentence lattice allocation (the PR-1
// kernels' contract, now held across requests instead of across a corpus
// pass). The model is shared const — GraphNerModel::decode_one is
// thread-safe over immutable state, so any number of workers share one
// model with no copies and no locks on the decode path.
//
// Generations: the service serves one ModelGeneration (model + label
// inventory) at a time. submit() stamps the current one on the request
// as it enqueues it, and the worker decodes under the generation the
// request carries and reports its fingerprint on the response.
// swap_model() exchanges the pointer and returns at once: it starts no
// thread and waits for nothing. Queued requests finish under the
// generation they were admitted with; the old model is freed when the
// last of them resolves. Workers, queue, scratches and metrics live for
// the whole service, so its counters are monotone by construction.
//
// Lifecycle: the constructor starts the workers; stop() (or the
// destructor) closes admission, drains every queued request, and joins.
// Requests rejected at admission (queue full, after stop) resolve their
// future immediately with a structured non-OK response — submit() never
// blocks and never drops a promise.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/graphner/pipeline.hpp"
#include "src/serve/metrics.hpp"
#include "src/serve/request_queue.hpp"
#include "src/serve/tag_service.hpp"
#include "src/serve/types.hpp"

namespace graphner::serve {

/// Hysteretic load-shedding of decode *quality*: past the high-water mark
/// the service falls back from the GraphNER posterior-blend decode to the
/// plain CRF Viterbi (roughly the cost of one forward pass instead of
/// forward-backward + belief Viterbi) and marks responses degraded; it
/// recovers only once depth falls to the low-water mark, so the mode
/// cannot flap at the threshold.
struct DegradePolicy {
  std::size_t high_watermark = 0;  ///< queue depth that enters degraded mode; 0 disables
  std::size_t low_watermark = 0;   ///< depth at (or below) which it recovers
};

struct ServiceConfig {
  std::size_t workers = 0;  ///< 0 = hardware concurrency
  BatchPolicy batching;
  /// Deadline applied to requests that do not carry their own (0 = none).
  /// Expired requests are shed before decode with Status::kDeadlineExceeded.
  std::chrono::milliseconds default_deadline{0};
  /// Serve the GraphNER posterior-blend decode (reference-anchored mix of
  /// CRF posteriors, decoded with belief Viterbi) instead of the plain CRF
  /// Viterbi. This is the path DegradePolicy falls back *from*; with it
  /// off, degradation has nothing cheaper to switch to and is inert.
  bool blend_decode = false;
  DegradePolicy degrade;
};

class TaggingService : public TagService {
 public:
  explicit TaggingService(std::shared_ptr<const core::GraphNerModel> model,
                          ServiceConfig config = {});
  ~TaggingService() override;

  TaggingService(const TaggingService&) = delete;
  TaggingService& operator=(const TaggingService&) = delete;

  /// Enqueue one sentence under the current generation. Always returns a
  /// future that will be fulfilled: with tags on success, or with a
  /// terminal non-OK status (kOverloaded / kShutdown immediately,
  /// kDeadlineExceeded if the deadline passes while queued).
  /// `options.deadline` <= 0 uses the config default; `options.model` is
  /// not consulted (tenant selection belongs to the router).
  [[nodiscard]] std::future<TagResponse> submit(text::Sentence sentence,
                                                SubmitOptions options) override;

  /// Serve `model` for every later submit. One pointer exchange: no thread
  /// starts and nothing waits; queued requests keep their generation.
  void swap_model(std::shared_ptr<const core::GraphNerModel> model);
  /// The generation later submits decode under.
  [[nodiscard]] std::shared_ptr<const ModelGeneration> generation() const {
    return queue_.generation();
  }

  /// Synchronous convenience: submit + wait.
  [[nodiscard]] TagResponse tag(text::Sentence sentence);

  /// True while the service is answering with the plain-Viterbi fallback.
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// Graceful stop: reject new work, decode everything already queued,
  /// join the workers. Idempotent; also run by the destructor.
  void stop();

  /// This service's own registry snapshot (bare names: "submitted", ...).
  [[nodiscard]] obs::RegistrySnapshot metrics() const {
    return metrics_.snapshot();
  }
  /// Everything a scrape should see, merged into one snapshot: this
  /// service's registry (names prefixed "serve.") plus
  /// append_process_metrics(). Feed it to the obs exporters — this is what
  /// the protocol METRICS flavours serialize.
  [[nodiscard]] obs::RegistrySnapshot observability_snapshot() const override;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }

 private:
  void worker_loop(std::size_t worker_id);
  /// Re-evaluate the degradation hysteresis against the current queue
  /// depth; returns the mode the caller's batch should decode under.
  bool update_degraded_mode();

  ServiceConfig config_;
  BatchQueue queue_;
  ServiceMetrics metrics_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> degraded_{false};
};

}  // namespace graphner::serve
