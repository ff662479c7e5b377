// Shared request/response vocabulary of the serving runtime.
//
// A tagging request is one tokenized sentence; the response carries either
// the BIO tags or a structured rejection (overload / shutdown / error) plus
// the per-request timing the metrics layer aggregates. Responses travel
// through std::future so the in-process API, the socket server and the
// load generator all consume the same type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/text/label_set.hpp"
#include "src/text/tag.hpp"

namespace graphner::serve {

enum class Status : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,  ///< bounded queue was full — retry later (backpressure)
  kShutdown = 2,    ///< service is stopping and no longer accepts work
  kError = 3,       ///< decode threw; `error` holds the reason
  /// The request's deadline passed before a worker reached it; it was shed
  /// without being decoded. Retryable (with backoff) like kOverloaded.
  kDeadlineExceeded = 4,
  /// No replica could take the request (all siblings down or draining).
  /// Emitted by the router tier, never by a single TaggingService; a
  /// retry may land after a hot-swap revives a replica.
  kUnavailable = 5,
  /// The request named a model no resident generation answers to (the
  /// tenant dimension of SubmitOptions::model). Not retryable and never a
  /// failover trigger: the tier is healthy, the selector is wrong.
  kUnknownModel = 6,
  /// The tenant's token-bucket quota is exhausted. A policy rejection,
  /// not a load signal — the client should slow down, so it is neither
  /// retryable nor a failover trigger.
  kQuotaExceeded = 7,
};

[[nodiscard]] constexpr std::string_view status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "OK";
    case Status::kOverloaded: return "OVERLOADED";
    case Status::kShutdown: return "SHUTDOWN";
    case Status::kError: return "ERROR";
    case Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::kUnavailable: return "UNAVAILABLE";
    case Status::kUnknownModel: return "UNKNOWN_MODEL";
    case Status::kQuotaExceeded: return "QUOTA_EXCEEDED";
  }
  return "?";
}

/// Statuses a client may retry after backoff: transient load conditions,
/// not permanent failures.
[[nodiscard]] constexpr bool status_retryable(Status status) noexcept {
  return status == Status::kOverloaded || status == Status::kDeadlineExceeded ||
         status == Status::kUnavailable;
}

struct TagResponse {
  Status status = Status::kOk;
  std::vector<text::Tag> tags;  ///< one per token when status == kOk
  std::string error;            ///< human-readable detail for non-OK statuses
  double queue_us = 0.0;        ///< time spent waiting in the batch queue
  double decode_us = 0.0;       ///< feature extraction + Viterbi
  std::size_t batch_size = 0;   ///< size of the micro-batch it rode in
  bool coalesced = false;       ///< served by a duplicate's decode in-batch
  /// The service was in degraded mode and answered with the plain CRF
  /// Viterbi decode instead of the GraphNER posterior-blend decode.
  bool degraded = false;
  /// The label inventory `tags` decodes under — how the wire layer turns
  /// tag ids into names for multi-entity models ("B-protein", ...). Null
  /// falls back to the legacy single-type names ("B"/"I"/"O"), which is
  /// what single() also spells, so the carrier never changes legacy bytes.
  std::shared_ptr<const text::LabelSet> labels;
  /// Fingerprint of the model generation that decoded `tags` (0 when no
  /// decode ran) — what the router's cache keys the answer under.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

}  // namespace graphner::serve
