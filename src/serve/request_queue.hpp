// Bounded MPMC request queue with dynamic micro-batching.
//
// Producers (client threads, socket connections) push single requests;
// consumers (decode workers) pop *batches*. A batch closes when either
// `max_batch` requests are waiting or the oldest waiting request has aged
// `max_delay` — so an idle service answers a lone request within the delay
// budget while a busy one amortises wakeups and warm-buffer reuse over
// full batches. Depth is bounded: a push against a full queue is rejected
// immediately (the caller answers with Status::kOverloaded) instead of
// blocking the producer — explicit backpressure rather than unbounded
// memory growth. shutdown() stops admission but keeps handing out batches
// until the queue is drained, which is what graceful stop needs.
//
// The queue also holds the service's current model generation. push()
// stamps it on the request under the same lock that enqueues it, so a
// request decodes under exactly the generation that was current when it
// was admitted, and set_generation() is one pointer exchange that never
// waits for queued work.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "src/serve/types.hpp"
#include "src/text/label_set.hpp"
#include "src/text/sentence.hpp"

namespace graphner::core {
class GraphNerModel;
}  // namespace graphner::core

namespace graphner::serve {

/// One model generation: the immutable model a request decodes under and
/// its label inventory (a copy, shared by every OK response, so responses
/// may outlive the model). Requests hold it by shared_ptr, so a swapped-out
/// model is freed when the last request admitted under it resolves.
struct ModelGeneration {
  std::shared_ptr<const core::GraphNerModel> model;
  std::shared_ptr<const text::LabelSet> labels;
};

struct BatchPolicy {
  std::size_t max_batch = 32;        ///< batch closes at this many requests
  std::size_t max_queue_depth = 1024;  ///< pushes beyond this are rejected
  std::chrono::microseconds max_delay{2000};  ///< max wait for a fuller batch
  /// Decode identical token sequences within one micro-batch once and fan
  /// the result out to every duplicate. Decode is deterministic, so the
  /// duplicates' responses are byte-identical; corpus-shaped traffic (the
  /// recurring surface forms GraphNER itself exploits) coalesces heavily.
  /// Only batches can do this — a single-request-at-a-time server never
  /// sees two identical requests at once.
  bool coalesce_duplicates = true;
};

/// One queued request: the sentence, the promise the decode worker
/// fulfills, the enqueue timestamp (queue-wait metrics), and the deadline
/// after which the worker sheds it without decoding.
struct PendingRequest {
  text::Sentence sentence;
  std::promise<TagResponse> promise;
  std::chrono::steady_clock::time_point enqueued_at;
  /// max() = no deadline. Carried through the queue so expiry is checked
  /// where it matters: right before the (expensive) decode.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Canonical sentence key, threaded from SubmitOptions (or derived once
  /// at admission) so the coalescing worker never re-joins the tokens.
  std::string key;
  /// The generation current at admission, stamped by BatchQueue::push.
  std::shared_ptr<const ModelGeneration> generation;

  [[nodiscard]] bool expired(std::chrono::steady_clock::time_point now) const noexcept {
    return now > deadline;
  }
};

class BatchQueue {
 public:
  BatchQueue(BatchPolicy policy,
             std::shared_ptr<const ModelGeneration> generation)
      : policy_(policy), generation_(std::move(generation)) {}

  enum class PushResult { kAccepted, kOverloaded, kShutdown };

  /// Non-blocking admission. `request` is consumed only on kAccepted, and
  /// then carries the current generation; on rejection it is left intact
  /// so the caller can fulfill its promise with the structured rejection.
  PushResult push(PendingRequest&& request);

  /// Make `generation` current for every later push. Requests already
  /// queued keep the generation they carry.
  void set_generation(std::shared_ptr<const ModelGeneration> generation);
  [[nodiscard]] std::shared_ptr<const ModelGeneration> generation() const;

  /// Block until a micro-batch is ready (see file comment for the closing
  /// rule), move it into `out` (cleared first), and return true. Returns
  /// false only after shutdown() once the queue is fully drained.
  bool pop_batch(std::vector<PendingRequest>& out);

  /// Stop admitting work and wake every waiter. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }

 private:
  BatchPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<PendingRequest> queue_;
  std::shared_ptr<const ModelGeneration> generation_;
  bool shutdown_ = false;
};

}  // namespace graphner::serve
