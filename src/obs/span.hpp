// Lightweight trace spans (DESIGN.md §9).
//
// A ScopedSpan brackets one phase of work: it notes the start time on
// construction and, on close (explicit or at scope exit), appends a
// finished SpanRecord — name, nesting depth, parent id, wall time,
// key=value attributes — to the calling thread's ring buffer inside
// Trace::global(). Exporters drain the rings; a ring that is never
// drained overwrites its oldest records (and counts the drops), so
// tracing can stay on forever without growing memory.
//
// Nesting is tracked per thread: a span opened while another span of the
// same thread is open becomes its child. Spans are for phase-granular
// work (training phases, graph builds, checkpoint commits) — they
// allocate on close and are not meant for per-sentence hot paths.
//
// With GRAPHNER_LOG=debug, span open/close lines are emitted through the
// util::logging sink, which replaces the old scattered timing chatter:
//
//   [graphner DEBUG] span open  train.brown
//   [graphner DEBUG] span close train.brown 1.382s
//
// SpanCapture additionally mirrors every span closed *on its thread*
// into a local vector while it is alive — how a caller reads the
// per-phase durations of work it ran (e.g. the "train.<phase>" spans of
// GraphNerModel::train) without draining the global rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace graphner::obs {

struct SpanAttr {
  std::string key;
  std::string value;
};

struct SpanRecord {
  std::string name;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span of its thread
  std::uint32_t depth = 0;      ///< 0 = root
  double start_seconds = 0.0;   ///< since the process trace epoch
  double duration_seconds = 0.0;
  std::vector<SpanAttr> attrs;
};

/// Process-wide collection of per-thread span rings.
class Trace {
 public:
  [[nodiscard]] static Trace& global();

  /// Move every finished span out of every thread's ring, oldest first
  /// within each thread. Safe to call while spans are being recorded.
  [[nodiscard]] std::vector<SpanRecord> drain();

  /// Records overwritten because no exporter drained them in time.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Per-thread ring capacity for threads that register *after* the call
  /// (existing rings keep their size). Default 1024.
  void set_ring_capacity(std::size_t capacity) noexcept;

 private:
  Trace() = default;
  friend class ScopedSpan;
  friend class SpanCapture;

  struct Ring;
  void record(SpanRecord&& record);
  [[nodiscard]] Ring& ring_for_this_thread();

  std::vector<std::shared_ptr<Ring>> rings_;  // guarded by rings_mutex_
  mutable std::mutex rings_mutex_;
  std::atomic<std::size_t> ring_capacity_{1024};
};

/// RAII span. close() is idempotent and returns the span's wall time in
/// seconds, so call sites that still fill duration structs can do both:
///   obs::ScopedSpan span("train.brown");
///   ... work ...
///   timings.brown_seconds = span.close();
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, double value);
  void attr(std::string_view key, std::uint64_t value);

  /// Wall time so far (or the final duration once closed).
  [[nodiscard]] double seconds() const noexcept;

  /// End the span now: record it, pop the nesting stack, emit the debug
  /// close line. Returns the duration; later calls return the same value.
  double close() noexcept;

 private:
  SpanRecord record_;
  double start_monotonic_ = 0.0;
  bool closed_ = false;
};

/// Mirrors every span closed on the constructing thread into records()
/// while alive. Captures nest (each sees the spans closed during its own
/// lifetime); destruction order must be inverse construction order,
/// which scoping gives for free.
class SpanCapture {
 public:
  SpanCapture();
  ~SpanCapture();

  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept {
    return records_;
  }

  /// Sum of the durations of captured spans with exactly this name.
  [[nodiscard]] double total_seconds(std::string_view name) const noexcept;

 private:
  friend class Trace;
  friend class ScopedSpan;
  std::vector<SpanRecord> records_;
};

}  // namespace graphner::obs
