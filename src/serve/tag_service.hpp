// The submit-side contract of the serving tier.
//
// SocketServer speaks to this interface, so the same TCP front-end serves
// a Router (N replicas, cross-request cache, failover — DESIGN.md §11;
// the graphner_router binary) or, in tests, a bare TaggingService without
// knowing which it got. Everything the wire needs is here: request
// submission, the metrics snapshot, and the "#REPLICA" admin surface.
#pragma once

#include <chrono>
#include <future>
#include <string>

#include "src/obs/registry.hpp"
#include "src/serve/types.hpp"
#include "src/text/sentence.hpp"

namespace graphner::serve {

/// Everything a submission carries besides the sentence itself. Grown
/// instead of positional parameters so new
/// per-request dimensions ride one struct through every tier — socket
/// handler, router, replica, service — without another signature sweep.
struct SubmitOptions {
  /// Per-request deadline; <= 0 uses the service default.
  std::chrono::milliseconds deadline{0};
  /// Tenant/model selector (the wire's "#model" id suffix, JSON "model"
  /// member or "#MODEL" connection default). Empty selects the default
  /// model, which is what every pre-tenancy client gets — full wire
  /// compatibility. An unknown name answers Status::kUnknownModel.
  std::string model;
  /// The canonical '\x1f'-joined sentence key, computed once at protocol
  /// ingestion (parse_request_line) right after token normalization.
  /// Every downstream consumer — micro-batch coalescing, the router
  /// cache, failover resubmits — reuses this instead of re-deriving it,
  /// so one request normalizes its tokens exactly once. Empty = the
  /// service derives it itself (direct API callers).
  std::string key;
};

class TagService {
 public:
  virtual ~TagService() = default;

  /// Enqueue one sentence. Must always return a future that will be
  /// fulfilled — with tags, or with a structured non-OK status — and must
  /// never block the caller on decode (pipelining depends on it).
  [[nodiscard]] virtual std::future<TagResponse> submit(
      text::Sentence sentence, SubmitOptions options) = 0;

  /// Positional sugar over the options struct (the pre-tenancy call shape;
  /// derived classes re-expose it with `using TagService::submit`).
  [[nodiscard]] std::future<TagResponse> submit(
      text::Sentence sentence, std::chrono::milliseconds deadline = {}) {
    SubmitOptions options;
    options.deadline = deadline;
    return submit(std::move(sentence), std::move(options));
  }

  /// The full scrape every "#METRICS [JSON|TSV|PROM]" flavour serializes.
  [[nodiscard]] virtual obs::RegistrySnapshot observability_snapshot() const = 0;

  /// Handle a "#REPLICA <command>" admin line and return the reply body
  /// (free-form lines; the server terminates it with "#END"). The base
  /// implementation rejects everything — only the router tier has
  /// replicas to administer.
  [[nodiscard]] virtual std::string admin(const std::string& command) {
    return "ERROR no replica tier (single-service server): " + command + "\n";
  }
};

}  // namespace graphner::serve
