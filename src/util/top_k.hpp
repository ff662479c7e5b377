// Bounded best-K tracker used by the k-NN graph builder.
//
// Keeps the K largest-scoring items seen so far with a min-heap; push is
// O(log K) and extraction yields items sorted by descending score.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace graphner::util {

template <typename Item>
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  /// Offer (score, item); kept only if among the K best so far.
  void push(double score, Item item) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.emplace_back(score, std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), min_first);
      return;
    }
    if (score <= heap_.front().first) return;
    std::pop_heap(heap_.begin(), heap_.end(), min_first);
    heap_.back() = {score, std::move(item)};
    std::push_heap(heap_.begin(), heap_.end(), min_first);
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool full() const noexcept { return heap_.size() == k_; }

  /// Consume contents, sorted by descending score (ties by item order).
  [[nodiscard]] std::vector<std::pair<double, Item>> take_sorted() {
    // sort_heap orders ascending w.r.t. the comparator; with min_first
    // ("greater score sorts earlier") that is descending by score already.
    std::sort_heap(heap_.begin(), heap_.end(), min_first);
    std::vector<std::pair<double, Item>> out = std::move(heap_);
    heap_.clear();
    return out;
  }

 private:
  static bool min_first(const std::pair<double, Item>& a,
                        const std::pair<double, Item>& b) noexcept {
    return a.first > b.first;  // std heap functions build a min-heap with this
  }

  std::size_t k_;
  std::vector<std::pair<double, Item>> heap_;
};

}  // namespace graphner::util
