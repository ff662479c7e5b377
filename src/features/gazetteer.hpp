// Terminology / gazetteer feature bank.
//
// Following Lerner et al.'s terminology-augmented clinical NER, a
// Gazetteer holds named term lists ("banks") of multi-token phrases —
// typically one bank per entity type, harvested from the labelled training
// mentions or loaded from an external terminology. At extraction time every
// longest match contributes positional membership features
// ("GAZB=<bank>" on the first token, "GAZI=<bank>" inside), giving the CRF
// a typed lexicon signal that, on a multi-entity corpus, is what separates
// look-alike surface forms whose type only a terminology knows.
//
// Matching is case-insensitive and longest-match-first per bank; banks
// match independently, so a phrase shared by two terminologies fires both.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/features/extractor.hpp"
#include "src/text/label_set.hpp"
#include "src/text/sentence.hpp"

namespace graphner::features {

class Gazetteer {
 public:
  /// Add one term (a non-empty token sequence) to `bank`, creating the
  /// bank on first use. Tokens are normalized to ASCII lowercase.
  void add_term(std::string_view bank, const std::vector<std::string>& tokens);

  /// Harvest a terminology from labelled sentences: every gold mention is
  /// added to the bank named after its entity type (the single-type set
  /// uses one "GENE" bank).
  [[nodiscard]] static Gazetteer from_labelled(
      const std::vector<text::Sentence>& sentences,
      const text::LabelSet& labels);

  [[nodiscard]] std::size_t num_banks() const noexcept { return banks_.size(); }
  [[nodiscard]] std::size_t num_terms() const noexcept { return num_terms_; }
  [[nodiscard]] bool empty() const noexcept { return num_terms_ == 0; }
  /// Bank names in canonical (sorted) order.
  [[nodiscard]] std::vector<std::string> bank_names() const;

  /// Membership features of one sentence, given its lowercased tokens:
  /// "GAZB=<bank>" on the first token of each longest match, "GAZI=<bank>"
  /// on the rest, banks in insertion order. Each name is composed in `name`
  /// (`phrase` stages candidate phrases) and passed to `sink`.
  void for_each_feature(std::span<const std::string> lowered, std::string& name,
                        std::string& phrase, FeatureSink sink) const;

  /// Append membership features to `features` (one TokenFeatures per
  /// position, already sized to the sentence).
  void annotate(const text::Sentence& sentence,
                std::vector<TokenFeatures>& features) const;

  /// Canonical serialization (banks and terms sorted): equal gazetteers
  /// produce byte-identical output, like every other model table.
  void save(std::ostream& out) const;
  static Gazetteer load(std::istream& in);

 private:
  struct Bank {
    std::string name;
    std::unordered_set<std::string> phrases;  ///< space-joined lowercase
    std::unordered_set<std::string> first_tokens;
    std::size_t max_tokens = 1;
  };

  Bank& bank_for(std::string_view name);

  std::vector<Bank> banks_;
  std::unordered_map<std::string, std::size_t> bank_index_;
  std::size_t num_terms_ = 0;
};

}  // namespace graphner::features
