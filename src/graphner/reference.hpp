// Reference label distributions X_ref (Algorithm 1, line 3).
//
// Scans the labelled data and, for every 3-gram type occurring there,
// averages the one-hot tag distribution of the centre token across its
// occurrences. These distributions anchor labelled vertices during graph
// propagation.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/propagation/propagation.hpp"
#include "src/text/label_set.hpp"
#include "src/text/sentence.hpp"
#include "src/util/strings.hpp"

namespace graphner::core {

class ReferenceDistributions {
 public:
  /// Build from labelled sentences (tags required). Distributions carry one
  /// column per label of `labels` (3 for the legacy single-type set).
  static ReferenceDistributions build(
      const std::vector<text::Sentence>& labelled,
      const text::LabelSet& labels = text::LabelSet::single());

  /// X_ref for a trigram key; nullptr when the trigram is not in V_l.
  [[nodiscard]] const propagation::LabelDistribution* find(
      const std::array<std::string, 3>& trigram) const;
  /// The same lookup by an already joined key (join_key), without copying it.
  [[nodiscard]] const propagation::LabelDistribution* find(std::string_view key) const;

  /// The table's key of the trigram (w0, w1, w2), written into `out`: the
  /// three lowercased tokens joined with '\x1f'.
  static void join_key(std::string_view w0, std::string_view w1, std::string_view w2,
                       std::string& out);

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

  /// Insert or overwrite an entry. Serving-time online learning stores
  /// propagated distributions for previously unseen trigrams this way.
  void set(const std::array<std::string, 3>& trigram,
           const propagation::LabelDistribution& dist) {
    table_[key_of(trigram)] = dist;
  }

  /// Order-independent FNV-1a digest of the table's content. Mixed into the
  /// model fingerprint so learned-table forks are distinguishable from their
  /// base (and from each other) by the decode cache.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Fraction of entries whose non-O mass exceeds the O mass ("positively
  /// labelled vertices", §III-D; O is always the last label).
  [[nodiscard]] double positive_fraction() const;

  /// Text serialization. Trigram keys are written tab-separated so the
  /// internal separator never reaches the file format.
  void save(std::ostream& out) const;
  static ReferenceDistributions load(std::istream& in);

 private:
  static std::string key_of(const std::array<std::string, 3>& trigram);

  std::unordered_map<std::string, propagation::LabelDistribution, util::StringHash,
                     std::equal_to<>>
      table_;
};

}  // namespace graphner::core
