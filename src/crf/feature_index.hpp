// Feature-name interning for the CRF.
//
// Feature extractors emit string names ("W=tumor", "SHAPE=Aa", ...); the
// index maps them to dense ids. During training new names are interned;
// at test time unseen names are dropped (standard CRF practice).
//
// The lookup table is one open-addressed array of (64-bit hash, id) slots
// with linear probing, kept at most half full. A probe whose hash matches
// is confirmed byte for byte against names_, so lookups take a string_view
// and never copy it. The table is in-memory only: the model formats persist
// the names in id order and the table is rebuilt on load.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/serial.hpp"

namespace graphner::crf {

class FeatureIndex {
 public:
  using Id = std::uint32_t;

  /// Intern (training mode): returns a stable id, creating one if new.
  Id intern(std::string_view name);

  /// Lookup (test mode): id if known.
  [[nodiscard]] std::optional<Id> find(std::string_view name) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& name(Id id) const { return names_.at(id); }

  /// Freeze: find-only from now on (intern asserts in debug builds).
  void freeze() noexcept { frozen_ = true; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Process-unique identity of the current name -> id mapping: a new one
  /// is drawn whenever intern adds a name (copies share it). Caches of
  /// looked-up ids key on it.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Id id = kEmpty;
  };
  static constexpr Id kEmpty = ~Id{0};

  /// The slot holding `name`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::string_view name, std::uint64_t hash) const noexcept;
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size, or empty
  std::vector<std::string> names_;
  bool frozen_ = false;
  std::uint64_t serial_ = util::next_serial();
};

}  // namespace graphner::crf
