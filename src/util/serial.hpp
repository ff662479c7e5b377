// Process-unique serial numbers.
//
// A cache keyed by an object's serial, not its address, can never mistake
// a new object for a destroyed one that happened to reuse the address.
#pragma once

#include <atomic>
#include <cstdint>

namespace graphner::util {

/// A fresh serial, unique within the process (never 0).
[[nodiscard]] inline std::uint64_t next_serial() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace graphner::util
