#include "src/serve/service.hpp"

#include <chrono>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/serve/protocol.hpp"
#include "src/util/fault.hpp"
#include "src/util/logging.hpp"

namespace graphner::serve {
namespace {

[[nodiscard]] std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

[[nodiscard]] double us_between(std::chrono::steady_clock::time_point from,
                                std::chrono::steady_clock::time_point to) noexcept {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

TaggingService::TaggingService(const core::GraphNerModel& model,
                               ServiceConfig config)
    : model_(model),
      config_(config),
      labels_(std::make_shared<const text::LabelSet>(model.labels())),
      queue_(config.batching) {
  if (config_.model_name.empty()) config_.model_name = "default";
  // A degrade policy with low > high would flap; clamp to a sane hysteresis.
  if (config_.degrade.low_watermark > config_.degrade.high_watermark)
    config_.degrade.low_watermark = config_.degrade.high_watermark;
  const std::size_t n = resolve_workers(config.workers);
  workers_.reserve(n);
  for (std::size_t w = 0; w < n; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
  util::log_info("serve: started ", n, " workers, max_batch ",
                 config.batching.max_batch, ", queue depth ",
                 config.batching.max_queue_depth, ", batch delay ",
                 config.batching.max_delay.count(), " us",
                 config_.blend_decode ? ", blend decode" : "",
                 config_.degrade.high_watermark > 0 ? ", degradable" : "");
}

TaggingService::~TaggingService() { stop(); }

std::future<TagResponse> TaggingService::submit(text::Sentence sentence,
                                                SubmitOptions options) {
  if (!options.model.empty() && options.model != config_.model_name) {
    // A single-model service has exactly one tenant; anything else is a
    // selector error, answered structurally and without touching the queue.
    std::promise<TagResponse> promise;
    TagResponse response;
    response.status = Status::kUnknownModel;
    response.error = "unknown model \"" + options.model +
                     "\" (this server serves \"" + config_.model_name + "\")";
    metrics_.on_rejected(response.status);
    promise.set_value(std::move(response));
    return promise.get_future();
  }

  PendingRequest request;
  // The canonical sentence key: threaded from protocol ingestion when the
  // request came over the wire, derived exactly once here otherwise.
  request.key = options.key.empty() ? sentence_key(sentence.tokens)
                                    : std::move(options.key);
  request.sentence = std::move(sentence);
  request.enqueued_at = std::chrono::steady_clock::now();
  std::chrono::milliseconds deadline = options.deadline;
  if (deadline.count() <= 0) deadline = config_.default_deadline;
  if (deadline.count() > 0) request.deadline = request.enqueued_at + deadline;
  std::future<TagResponse> future = request.promise.get_future();

  metrics_.on_submitted();
  // push() consumes the request only when it is accepted; on rejection the
  // promise is still ours to resolve with the structured status.
  switch (queue_.push(std::move(request))) {
    case BatchQueue::PushResult::kAccepted:
      break;
    case BatchQueue::PushResult::kOverloaded: {
      TagResponse response;
      response.status = Status::kOverloaded;
      response.error = "queue full (depth " +
                       std::to_string(queue_.policy().max_queue_depth) +
                       "), retry later";
      metrics_.on_rejected(response.status);
      request.promise.set_value(std::move(response));
      break;
    }
    case BatchQueue::PushResult::kShutdown: {
      TagResponse response;
      response.status = Status::kShutdown;
      response.error = "service is stopping";
      metrics_.on_rejected(response.status);
      request.promise.set_value(std::move(response));
      break;
    }
  }
  return future;
}

TagResponse TaggingService::tag(text::Sentence sentence) {
  return submit(std::move(sentence)).get();
}

void TaggingService::stop() {
  if (stopped_.exchange(true)) return;
  queue_.shutdown();  // workers drain the remaining batches, then exit
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
}

bool TaggingService::update_degraded_mode() {
  if (config_.degrade.high_watermark == 0) return false;
  const std::size_t depth = queue_.depth();
  bool degraded = degraded_.load(std::memory_order_relaxed);
  if (!degraded && depth >= config_.degrade.high_watermark) {
    degraded = true;
    degraded_.store(true, std::memory_order_relaxed);
    util::log_info("serve: queue depth ", depth, " >= high-water ",
                   config_.degrade.high_watermark,
                   " — degrading to plain Viterbi");
  } else if (degraded && depth <= config_.degrade.low_watermark) {
    degraded = false;
    degraded_.store(false, std::memory_order_relaxed);
    util::log_info("serve: queue depth ", depth, " <= low-water ",
                   config_.degrade.low_watermark,
                   " — recovered to blend decode");
  }
  return degraded;
}

obs::RegistrySnapshot TaggingService::observability_snapshot() const {
  metrics_.set_queue_depth(queue_.depth());  // fresh depth at scrape time
  obs::RegistrySnapshot out;
  out.append(metrics_.snapshot(), "serve.");
  append_process_metrics(out);
  return out;
}

void TaggingService::worker_loop([[maybe_unused]] std::size_t worker_id) {
  crf::LinearChainCrf::Scratch scratch;  // warm lattice, grows once
  features::EncodeScratch encode;        // warm feature/id buffers
  std::vector<PendingRequest> batch;
  // Within-batch coalescing state: token-sequence key -> (tags, decode_us)
  // of the first occurrence. Decode is deterministic over an immutable
  // model, so duplicates get byte-identical tags without re-decoding.
  std::unordered_map<std::string, std::pair<std::vector<text::Tag>, double>>
      decoded;
  const bool coalesce = queue_.policy().coalesce_duplicates;

  while (queue_.pop_batch(batch)) {
    // Chaos hook: a stalled worker — the queue backs up, deadlines expire,
    // degradation trips. The batch it stalls on must still fully resolve.
    util::fault_stall_point("worker.stall");
    const auto dequeued_at = std::chrono::steady_clock::now();
    metrics_.on_batch(batch.size());
    // Refreshed once per batch, not per submit: depth() takes the queue
    // mutex, and batch granularity is plenty for a load gauge.
    metrics_.set_queue_depth(queue_.depth());
    // Decode mode is fixed per batch: every response in it reports the
    // same degraded flag, and the coalescing cache (cleared here) never
    // mixes tags from two different decode paths.
    const bool degraded = update_degraded_mode();
    const bool blend = config_.blend_decode && !degraded;
    decoded.clear();
    for (auto& request : batch) {
      TagResponse response;
      response.queue_us = us_between(request.enqueued_at, dequeued_at);
      response.batch_size = batch.size();
      response.degraded = config_.blend_decode && degraded;

      // Deadline shedding *before* decode (and before the encode that
      // feeds it): a request nobody is waiting for anymore must not spend
      // worker time, only answer with the structured status.
      if (request.expired(std::chrono::steady_clock::now())) {
        response.status = Status::kDeadlineExceeded;
        response.error = "deadline exceeded after " +
                         std::to_string(static_cast<long>(response.queue_us)) +
                         " us in queue";
        response.degraded = false;
        metrics_.on_expired(response.queue_us);
        request.promise.set_value(std::move(response));
        continue;
      }

      const bool try_coalesce = coalesce && batch.size() > 1;
      if (try_coalesce) {
        // The canonical '\x1f'-joined key, computed once at ingestion and
        // carried on the request (PendingRequest::key) — the same key the
        // router's cross-request cache uses, never re-derived here.
        if (const auto hit = decoded.find(request.key); hit != decoded.end()) {
          response.tags = hit->second.first;       // shared decode's tags
          response.decode_us = hit->second.second; // ...and its cost
          response.coalesced = true;
          response.labels = labels_;
          metrics_.on_completed(response.queue_us, response.decode_us,
                                /*error=*/false, /*coalesced=*/true,
                                response.degraded);
          request.promise.set_value(std::move(response));
          continue;
        }
      }

      const auto decode_start = std::chrono::steady_clock::now();
      try {
        response.tags = blend
                            ? model_.decode_one_blended(request.sentence,
                                                        scratch, encode)
                            : model_.decode_one(request.sentence, scratch,
                                                encode);
      } catch (const std::exception& e) {
        response.status = Status::kError;
        response.error = e.what();
      }
      if (response.status == Status::kOk) response.labels = labels_;
      response.decode_us =
          us_between(decode_start, std::chrono::steady_clock::now());
      if (try_coalesce && response.status == Status::kOk)
        decoded.emplace(request.key,
                        std::make_pair(response.tags, response.decode_us));
      metrics_.on_completed(response.queue_us, response.decode_us,
                            response.status == Status::kError,
                            /*coalesced=*/false, response.degraded);
      request.promise.set_value(std::move(response));
    }
  }
}

}  // namespace graphner::serve
