#include "src/embeddings/brown.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "src/util/logging.hpp"
#include "src/util/parallel.hpp"
#include "src/util/strings.hpp"

namespace graphner::embeddings {
namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Cluster-level bigram statistics over a recycled (C+1)-slot window with a
/// cached AMI-term table.
///
/// The original trainer kept a dense V x V matrix (V = vocabulary) and
/// recomputed every AMI term on demand. Only C+1 slots are ever alive at
/// once — the C cluster representatives plus the word currently being
/// inserted — so this model stores exactly that window (O(C^2) memory) and
/// additionally caches q(a, b) for every window pair. Counts mutations mark
/// the affected rows/columns dirty; `refresh` recomputes just those before
/// the next round of merge-loss queries. Because a cached entry is always
/// produced by the same expression over the same operands as an on-demand
/// evaluation, every loss assembled from the cache is bit-for-bit equal to
/// the frozen reference implementation's — the property the golden tests
/// assert. (The classic O(1)-per-pair delta update of Liang 2005 is
/// deliberately NOT used: it reassociates the floating-point sums and can
/// flip near-tie merge decisions.)
class WindowModel {
 public:
  WindowModel(std::size_t window, double total_bigrams)
      : window_(window),
        total_(total_bigrams),
        bigram_(window * window, 0.0),
        q_(window * window, 0.0),
        left_(window, 0.0),
        right_(window, 0.0),
        alive_(window, false),
        dirty_row_(window, 1),
        dirty_col_(window, 1) {}

  void activate(std::size_t slot) { alive_[slot] = true; }
  [[nodiscard]] bool alive(std::size_t slot) const { return alive_[slot]; }

  void add_bigram(std::size_t a, std::size_t b, double count) {
    bigram_[a * window_ + b] += count;
    left_[a] += count;   // feeds every q(a, *)
    right_[b] += count;  // feeds every q(*, b)
    dirty_row_[a] = 1;
    dirty_col_[b] = 1;
  }

  /// Zero a slot so it can host the next inserted word.
  void recycle(std::size_t slot) {
    for (std::size_t d = 0; d < window_; ++d) {
      bigram_[slot * window_ + d] = 0.0;
      bigram_[d * window_ + slot] = 0.0;
    }
    left_[slot] = 0.0;
    right_[slot] = 0.0;
    alive_[slot] = false;
    dirty_row_[slot] = 1;
    dirty_col_[slot] = 1;
  }

  /// Recompute the cached q entries whose inputs changed, restricted to the
  /// given slot list (the only slots the upcoming loss queries touch).
  void refresh(const std::vector<std::size_t>& slots) {
    for (const std::size_t r : slots) {
      if (!dirty_row_[r]) continue;
      for (const std::size_t d : slots) q_[r * window_ + d] = compute_q(r, d);
      dirty_row_[r] = 0;
    }
    for (const std::size_t c : slots) {
      if (!dirty_col_[c]) continue;
      for (const std::size_t d : slots) q_[d * window_ + c] = compute_q(d, c);
      dirty_col_[c] = 0;
    }
  }

  /// Cached AMI term; `refresh` must have run since the last mutation.
  [[nodiscard]] double q(std::size_t a, std::size_t b) const {
    return q_[a * window_ + b];
  }

  /// Sum of AMI terms that mention slot c, folded in `order` sequence
  /// (matches the reference implementation's summation order exactly).
  [[nodiscard]] double contribution(std::size_t c,
                                    const std::vector<std::size_t>& order) const {
    double acc = 0.0;
    for (const std::size_t d : order) {
      acc += q(c, d);
      if (d != c) acc += q(d, c);
    }
    return acc;
  }

  /// The "terms added" half of the AMI merge loss: the merged cluster
  /// (a u b) scored against every other slot in `order`, plus its self
  /// term. Fresh evaluation per call — these are merge hypotheticals and
  /// have no cacheable identity.
  [[nodiscard]] double merge_added(std::size_t a, std::size_t b,
                                   const std::vector<std::size_t>& order) const {
    const double lu = left_[a] + left_[b];
    const double ru = right_[a] + right_[b];
    const double* arow = bigram_.data() + a * window_;
    const double* brow = bigram_.data() + b * window_;
    double added = 0.0;
    auto q_merged = [&](double count, double l, double r) {
      if (count <= 0.0 || l <= 0.0 || r <= 0.0) return 0.0;
      const double p = count / total_;
      return p * std::log(p * total_ * total_ / (l * r));
    };
    for (const std::size_t d : order) {
      if (d == a || d == b) continue;
      const double* drow = bigram_.data() + d * window_;
      added += q_merged(arow[d] + brow[d], lu, right_[d]);
      added += q_merged(drow[a] + drow[b], left_[d], ru);
    }
    added += q_merged(arow[a] + arow[b] + brow[a] + brow[b], lu, ru);
    return added;
  }

  /// Merge slot b into slot a (b dies). `order` lists the slots carrying
  /// counts, exactly as the reference implementation's `active` argument.
  void merge(std::size_t a, std::size_t b, const std::vector<std::size_t>& order) {
    for (const std::size_t d : order) {
      if (d == b) continue;
      bigram_[a * window_ + d] += bigram_[b * window_ + d];
      bigram_[b * window_ + d] = 0.0;
      bigram_[d * window_ + a] += bigram_[d * window_ + b];
      bigram_[d * window_ + b] = 0.0;
    }
    bigram_[a * window_ + a] += bigram_[b * window_ + b] +
                                bigram_[a * window_ + b] +
                                bigram_[b * window_ + a];
    bigram_[a * window_ + b] = 0.0;
    bigram_[b * window_ + a] = 0.0;
    bigram_[b * window_ + b] = 0.0;
    left_[a] += left_[b];
    right_[a] += right_[b];
    left_[b] = 0.0;
    right_[b] = 0.0;
    alive_[b] = false;
    dirty_row_[a] = 1;
    dirty_col_[a] = 1;
  }

 private:
  [[nodiscard]] double compute_q(std::size_t a, std::size_t b) const {
    const double c = bigram_[a * window_ + b];
    if (c <= 0.0 || left_[a] <= 0.0 || right_[b] <= 0.0) return 0.0;
    const double p = c / total_;
    return p * std::log(p * total_ * total_ / (left_[a] * right_[b]));
  }

  std::size_t window_;
  double total_;
  std::vector<double> bigram_;
  std::vector<double> q_;  ///< cached AMI terms, maintained by refresh()
  std::vector<double> left_;
  std::vector<double> right_;
  std::vector<bool> alive_;
  std::vector<char> dirty_row_;
  std::vector<char> dirty_col_;
};

/// Interned corpus counts: every distinct lowercased token gets a dense
/// integer id, unigrams live in a flat array, and bigrams are folded into a
/// single integer-keyed map before being scattered into per-word adjacency
/// lists. Replaces the nested string-keyed maps (three hash lookups plus a
/// lowercase allocation per token) that the frozen dense reference still
/// carries. All counts are integers, so no accumulation-order change can
/// perturb the doubles the AMI terms are computed from.
struct Counts {
  std::vector<std::string> words;      ///< id -> token text
  std::vector<std::uint64_t> unigram;  ///< id -> count
  /// id -> (neighbour id, bigram count); `forward` lists successors,
  /// `reverse` predecessors.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> forward;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> reverse;
  std::uint32_t bos = 0;  ///< "<s>"
  std::uint32_t eos = 0;  ///< "</s>"
  std::uint64_t total_bigrams = 0;
};

/// Open-addressed (packed bigram id -> count) table: the single hot map in
/// counting. Linear probing over power-of-two capacity with a splitmix64
/// finalizer; several times faster than the node-based unordered_map.
class PairCounter {
 public:
  PairCounter() : keys_(kInitialCapacity, kEmpty), vals_(kInitialCapacity, 0) {}

  void add(std::uint64_t key) {
    if ((used_ + 1) * 10 >= keys_.size() * 7) grow();
    std::size_t i = slot(key, keys_.size());
    while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & (keys_.size() - 1);
    if (keys_[i] == kEmpty) {
      keys_[i] = key;
      ++used_;
    }
    ++vals_[i];
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] != kEmpty) fn(keys_[i], vals_[i]);
  }

 private:
  // Packed keys are (id_a << 32) | id_b with both ids far below 2^32, so the
  // all-ones sentinel can never collide with a real key.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kInitialCapacity = 1 << 16;

  static std::size_t slot(std::uint64_t key, std::size_t capacity) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & (capacity - 1);
  }

  void grow() {
    const std::vector<std::uint64_t> old_keys = std::move(keys_);
    const std::vector<std::uint64_t> old_vals = std::move(vals_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    vals_.assign(old_vals.size() * 2, 0);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t j = slot(old_keys[i], keys_.size());
      while (keys_[j] != kEmpty) j = (j + 1) & (keys_.size() - 1);
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> vals_;
  std::size_t used_ = 0;
};

Counts count_corpus(const std::vector<text::Sentence>& sentences) {
  Counts counts;
  std::unordered_map<std::string, std::uint32_t> intern;
  intern.reserve(1 << 15);
  // try_emplace: the key string is only copied into a node on a genuine
  // insert — the overwhelmingly common duplicate-token case is a pure find.
  auto id_of = [&](const std::string& token) {
    const auto [it, inserted] =
        intern.try_emplace(token, static_cast<std::uint32_t>(counts.words.size()));
    if (inserted) {
      counts.words.push_back(token);
      counts.unigram.push_back(0);
    }
    return it->second;
  };
  counts.bos = id_of("<s>");
  counts.eos = id_of("</s>");
  PairCounter pair_counts;
  std::string lower;
  for (const auto& sentence : sentences) {
    std::uint32_t prev = counts.bos;
    ++counts.unigram[prev];
    for (const auto& raw : sentence.tokens) {
      lower.assign(raw);  // ASCII lowercase in place, as util::to_lower
      for (char& c : lower)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      const std::uint32_t tok = id_of(lower);
      ++counts.unigram[tok];
      pair_counts.add((static_cast<std::uint64_t>(prev) << 32) | tok);
      ++counts.total_bigrams;
      prev = tok;
    }
    pair_counts.add((static_cast<std::uint64_t>(prev) << 32) | counts.eos);
    ++counts.total_bigrams;
  }
  counts.forward.resize(counts.words.size());
  counts.reverse.resize(counts.words.size());
  pair_counts.for_each([&](std::uint64_t key, std::uint64_t c) {
    const auto a = static_cast<std::uint32_t>(key >> 32);
    const auto b = static_cast<std::uint32_t>(key & 0xffffffffULL);
    counts.forward[a].emplace_back(b, c);
    counts.reverse[b].emplace_back(a, c);
  });
  return counts;
}

/// First index of the strictly smallest loss, scanned in `count` candidate
/// order — the parallel equivalent of the reference implementation's serial
/// `loss < best_loss` scan (ties keep the earlier candidate; NaNs lose).
struct BestLoss {
  double loss = std::numeric_limits<double>::infinity();
  std::size_t index = kNoSlot;
};

template <typename LossFn>
BestLoss parallel_argmin(std::size_t count, const LossFn& loss_of) {
  return util::parallel_reduce(
      std::size_t{0}, count, BestLoss{},
      [&](BestLoss& acc, std::size_t k) {
        const double loss = loss_of(k);
        if (loss < acc.loss) {
          acc.loss = loss;
          acc.index = k;
        }
      },
      [](BestLoss& lhs, const BestLoss& rhs) {
        if (rhs.index != kNoSlot && rhs.loss < lhs.loss) lhs = rhs;
      });
}

}  // namespace

BrownClustering BrownClustering::train(const std::vector<text::Sentence>& sentences,
                                       const BrownConfig& config) {
  BrownClustering result;
  const Counts counts = count_corpus(sentences);
  if (counts.total_bigrams == 0) return result;

  // Frequency-ordered vocabulary (excluding boundary pseudo-tokens).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> vocab;  // (id, count)
  for (std::uint32_t id = 0; id < counts.words.size(); ++id) {
    if (id == counts.bos || id == counts.eos) continue;
    if (counts.unigram[id] >= config.min_count)
      vocab.emplace_back(id, counts.unigram[id]);
  }
  std::sort(vocab.begin(), vocab.end(), [&](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second
                                : counts.words[a.first] < counts.words[b.first];
  });
  if (vocab.size() > config.max_vocabulary) vocab.resize(config.max_vocabulary);
  if (vocab.empty()) return result;

  const std::size_t num_clusters = std::min(config.num_clusters, vocab.size());
  if (num_clusters == 0) return result;

  // Each vocabulary word gets a slot; slot merging is tracked by a
  // union-find so word -> final cluster resolves after all merges. The
  // greedy procedure only ever merges a new word into one of the
  // `num_clusters` seed slots, so every union-find root is a seed slot —
  // which is what lets the count window stay (C+1)-sized: seed slot s
  // occupies window slot s, and one extra window slot hosts whichever word
  // is currently being inserted.
  std::vector<std::size_t> slot_of(counts.words.size(), kNoSlot);
  for (std::size_t i = 0; i < vocab.size(); ++i) slot_of[vocab[i].first] = i;
  std::vector<std::size_t> parent(vocab.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  const std::size_t transient = num_clusters;  // recycled window slot
  WindowModel model(num_clusters + 1, static_cast<double>(counts.total_bigrams));

  // Add word `vocab_slot`'s bigram counts into window slot `wslot`. A
  // neighbour contributes iff it is the word itself or resolves to a live
  // cluster representative (always a seed slot, see above).
  auto add_word_counts = [&](std::size_t vocab_slot, std::size_t wslot) {
    const std::uint32_t id = vocab[vocab_slot].first;
    // Forward: word -> (active cluster | itself).
    for (const auto& [next, c] : counts.forward[id]) {
      const std::size_t vs = slot_of[next];
      if (vs == kNoSlot) continue;
      const std::size_t other = find(vs);
      if (other == vocab_slot)
        model.add_bigram(wslot, wslot, static_cast<double>(c));
      else if (other < num_clusters && model.alive(other))
        model.add_bigram(wslot, other, static_cast<double>(c));
    }
    // Reverse: (active cluster) -> word; the self pair was added above.
    for (const auto& [prev, c] : counts.reverse[id]) {
      const std::size_t vs = slot_of[prev];
      if (vs == kNoSlot) continue;
      const std::size_t other = find(vs);
      if (other != vocab_slot && other < num_clusters && model.alive(other))
        model.add_bigram(other, wslot, static_cast<double>(c));
    }
    model.activate(wslot);
  };

  // Phase 1: seed with the most frequent `num_clusters` words.
  std::vector<std::size_t> seeds;
  for (std::size_t i = 0; i < num_clusters; ++i) {
    add_word_counts(i, i);
    seeds.push_back(i);
  }

  // Phase 2: insert each remaining word into the transient slot, then merge
  // it into the cluster whose merge loses the least average mutual
  // information. `scan_order` mirrors the reference implementation's
  // `active` vector (seeds in insertion order, then the new word), which
  // fixes the floating-point summation order of every loss term.
  std::vector<std::size_t> scan_order = seeds;
  scan_order.push_back(transient);
  std::vector<double> base(num_clusters, 0.0);  // per-seed contribution prefix
  for (std::size_t i = num_clusters; i < vocab.size(); ++i) {
    model.recycle(transient);
    add_word_counts(i, transient);
    model.refresh(scan_order);

    // contribution(seed, active) folds the seed terms first and the two
    // transient terms last; precomputing the seed-only prefix lets every
    // candidate reuse it without changing the fold.
    for (const std::size_t t : seeds) base[t] = model.contribution(t, seeds);
    const double contrib_word = model.contribution(transient, scan_order);

    const BestLoss best = parallel_argmin(num_clusters, [&](std::size_t t) {
      const double ca = (base[t] + model.q(t, transient)) + model.q(transient, t);
      double removed = ca + contrib_word;
      removed -= model.q(t, transient) + model.q(transient, t);
      return removed - model.merge_added(t, transient, scan_order);
    });
    const std::size_t best_target = best.index == kNoSlot ? seeds.front() : best.index;
    model.merge(best_target, transient, scan_order);
    parent[i] = best_target;
  }

  // Phase 3: merge the final clusters down to one, recording the tree.
  struct Node {
    int left = -1;
    int right = -1;
    std::size_t slot = 0;  ///< leaf only
  };
  std::vector<Node> tree;
  std::unordered_map<std::size_t, int> slot_node;
  for (const std::size_t slot : seeds) {
    slot_node[slot] = static_cast<int>(tree.size());
    tree.push_back({-1, -1, slot});
  }
  std::vector<std::size_t> remaining = seeds;
  std::vector<double> contrib(num_clusters + 1, 0.0);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  while (remaining.size() > 1) {
    model.refresh(remaining);
    for (const std::size_t x : remaining) contrib[x] = model.contribution(x, remaining);
    pairs.clear();
    for (std::size_t x = 0; x < remaining.size(); ++x)
      for (std::size_t y = x + 1; y < remaining.size(); ++y)
        pairs.emplace_back(remaining[x], remaining[y]);
    const BestLoss best = parallel_argmin(pairs.size(), [&](std::size_t k) {
      const auto [a, b] = pairs[k];
      double removed = contrib[a] + contrib[b];
      removed -= model.q(a, b) + model.q(b, a);
      return removed - model.merge_added(a, b, remaining);
    });
    const auto [best_a, best_b] =
        best.index == kNoSlot ? pairs.front() : pairs[best.index];
    model.merge(best_a, best_b, remaining);
    const int node = static_cast<int>(tree.size());
    tree.push_back({slot_node[best_a], slot_node[best_b], 0});
    slot_node[best_a] = node;
    remaining.erase(std::find(remaining.begin(), remaining.end(), best_b));
  }

  // Walk the tree from the root assigning bit strings to leaves.
  std::vector<std::string> slot_path(num_clusters);
  if (!tree.empty()) {
    struct Frame {
      int node;
      std::string path;
    };
    std::vector<Frame> stack{{static_cast<int>(tree.size()) - 1, ""}};
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      const Node& node = tree[static_cast<std::size_t>(frame.node)];
      if (node.left < 0) {
        slot_path[node.slot] = frame.path.empty() ? "0" : frame.path;
        continue;
      }
      stack.push_back({node.left, frame.path + "0"});
      stack.push_back({node.right, frame.path + "1"});
    }
  }

  // Final cluster ids and word assignments.
  std::unordered_map<std::size_t, int> slot_cluster;
  for (const std::size_t slot : seeds) {
    slot_cluster[slot] = static_cast<int>(result.paths_.size());
    result.paths_.push_back(slot_path[slot]);
  }
  for (std::size_t i = 0; i < vocab.size(); ++i)
    result.word_cluster_[counts.words[vocab[i].first]] = slot_cluster[find(i)];

  util::log_debug("brown: ", result.paths_.size(), " clusters over ",
                  vocab.size(), " words");
  return result;
}

std::string_view BrownClustering::path_view(const std::string& word) const {
  const int c = cluster(word);
  return c < 0 ? std::string_view{} : std::string_view(paths_[static_cast<std::size_t>(c)]);
}

std::string BrownClustering::path(const std::string& word) const {
  return std::string(path_view(word));
}

std::string BrownClustering::path_prefix(const std::string& word, std::size_t n) const {
  return std::string(path_view(word).substr(0, n));
}

void BrownClustering::save(std::ostream& out) const {
  out << paths_.size() << ' ' << word_cluster_.size() << '\n';
  for (const auto& path : paths_) out << path << '\n';
  // Sorted word table: the serialization is a deterministic function of the
  // model, not of unordered_map iteration order.
  std::vector<std::pair<std::string, int>> entries(word_cluster_.begin(),
                                                   word_cluster_.end());
  std::sort(entries.begin(), entries.end());
  for (const auto& [word, cluster] : entries) out << word << ' ' << cluster << '\n';
}

BrownClustering BrownClustering::load(std::istream& in) {
  BrownClustering result;
  std::size_t clusters = 0;
  std::size_t words = 0;
  if (!(in >> clusters >> words))
    throw std::runtime_error(
        "brown clusters: malformed header (expected `clusters words`)");
  // Every cluster owns at least one word in any file save() wrote, so a
  // header claiming otherwise (or an absurd allocation request) is corrupt.
  if (clusters > words)
    throw std::runtime_error("brown clusters: header claims " +
                             std::to_string(clusters) + " clusters but only " +
                             std::to_string(words) + " words");
  result.paths_.resize(clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    auto& path = result.paths_[i];
    if (!(in >> path))
      throw std::runtime_error("brown clusters: truncated path table (read " +
                               std::to_string(i) + " of " +
                               std::to_string(clusters) + " paths)");
    for (const char c : path)
      if (c != '0' && c != '1')
        throw std::runtime_error("brown clusters: path " + std::to_string(i) +
                                 " is not a bit string: '" + path + "'");
  }
  for (std::size_t i = 0; i < words; ++i) {
    std::string word;
    int cluster = 0;
    if (!(in >> word >> cluster))
      throw std::runtime_error("brown clusters: truncated word table (read " +
                               std::to_string(i) + " of " + std::to_string(words) +
                               " words)");
    if (cluster < 0 || static_cast<std::size_t>(cluster) >= clusters)
      throw std::runtime_error("brown clusters: word '" + word +
                               "' references cluster " + std::to_string(cluster) +
                               " outside [0, " + std::to_string(clusters) + ")");
    if (!result.word_cluster_.emplace(std::move(word), cluster).second)
      throw std::runtime_error("brown clusters: duplicate word entry at record " +
                               std::to_string(i));
  }
  return result;
}

int BrownClustering::cluster(const std::string& word) const {
  // Feature extraction passes words it already lowercased: look those up
  // as they are instead of copying them.
  const bool lowercase = std::none_of(word.begin(), word.end(), [](unsigned char c) {
    return std::isupper(c) != 0;
  });
  const auto it = lowercase ? word_cluster_.find(word)
                            : word_cluster_.find(util::to_lower(word));
  return it == word_cluster_.end() ? -1 : it->second;
}

}  // namespace graphner::embeddings
