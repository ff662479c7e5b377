#include "src/crf/feature_index.hpp"

#include <cassert>
#include <cstring>

namespace graphner::crf {
namespace {

[[nodiscard]] std::uint64_t mix(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// 64-bit hash of a name, eight bytes per step (the names are short: the
/// typical feature is 5-20 bytes).
[[nodiscard]] std::uint64_t hash_name(std::string_view name) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ name.size();
  const char* p = name.data();
  std::size_t left = name.size();
  for (; left >= 8; p += 8, left -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = mix(h ^ word);
  }
  if (left > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, left);
    h = mix(h ^ word);
  }
  return h;
}

}  // namespace

std::size_t FeatureIndex::probe(std::string_view name,
                                std::uint64_t hash) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    const Slot& slot = slots_[at];
    if (slot.id == kEmpty || (slot.hash == hash && names_[slot.id] == name)) return at;
  }
}

void FeatureIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    std::size_t at = slot.hash & mask;
    while (slots_[at].id != kEmpty) at = (at + 1) & mask;
    slots_[at] = slot;
  }
}

FeatureIndex::Id FeatureIndex::intern(std::string_view name) {
  const std::uint64_t hash = hash_name(name);
  if (!slots_.empty())
    if (const Slot& slot = slots_[probe(name, hash)]; slot.id != kEmpty) return slot.id;
  assert(!frozen_ && "intern called on a frozen FeatureIndex");
  // At most half full after this insert, so probes stay short and always
  // reach an empty slot.
  if (2 * (names_.size() + 1) > slots_.size()) grow();
  const auto id = static_cast<Id>(names_.size());
  slots_[probe(name, hash)] = Slot{hash, id};
  names_.emplace_back(name);
  serial_ = util::next_serial();
  return id;
}

std::optional<FeatureIndex::Id> FeatureIndex::find(std::string_view name) const noexcept {
  if (slots_.empty()) return std::nullopt;
  const Slot& slot = slots_[probe(name, hash_name(name))];
  if (slot.id == kEmpty) return std::nullopt;
  return slot.id;
}

}  // namespace graphner::crf
