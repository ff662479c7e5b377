// NER feature extraction.
//
// The BANNER profile covers the classic supervised feature templates:
// token identity, lowercase, lemma, context window, token bigrams, word
// shapes, prefixes/suffixes, character n-grams, orthographic predicates
// (caps, digits, punctuation, Roman numerals, Greek letters) and a length
// bucket. The ChemDNER profile adds Brown-cluster path prefixes and
// word2vec k-means cluster ids, turning the same CRF into the
// semi-supervised-features baseline of the paper.
//
// The templates are defined once, in for_each_feature: each composes its
// feature name into one reused buffer and hands it to a sink. extract()
// copies the names out; the encoder looks them up in the CRF's feature
// index without ever materializing a string (DESIGN.md, "Feature encoding").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/embeddings/brown.hpp"
#include "src/embeddings/word2vec.hpp"
#include "src/postag/hmm_tagger.hpp"
#include "src/text/sentence.hpp"
#include "src/util/function_ref.hpp"

namespace graphner::features {

class Gazetteer;

struct FeatureConfig {
  bool token_identity = true;
  bool lemmas = true;
  bool context = true;
  std::size_t context_window = 2;
  bool token_bigrams = true;
  bool shapes = true;
  bool affixes = true;
  std::size_t max_affix_length = 4;
  bool char_ngrams = true;
  bool orthographic = true;
  bool length_bucket = true;
  // ChemDNER extensions (non-owning pointers; nullptr disables the feature).
  const embeddings::BrownClustering* brown = nullptr;
  const embeddings::EmbeddingClusters* embedding_clusters = nullptr;
  /// Optional HMM POS tagger (BANNER feeds POS features to its CRF). POS
  /// features are produced by the whole-sentence paths (extract(),
  /// for_each_feature), which tag each sentence once; extract_at() alone
  /// does not include them.
  const postag::HmmPosTagger* pos_tagger = nullptr;
  /// Optional terminology bank (Lerner et al.-style). Gazetteer matches
  /// are phrase-level, so like POS they come from the whole-sentence paths
  /// only; extract_at() alone does not include them.
  const Gazetteer* gazetteer = nullptr;
};

/// Per-position string features ("W=tumor", "SUF2=or", ...).
using TokenFeatures = std::vector<std::string>;

/// Receives each feature as it is composed: (position, name). `name` views
/// a reused buffer and is valid only for the duration of the call.
using FeatureSink = util::FunctionRef<void(std::size_t, std::string_view)>;

/// Reusable buffers the feature templates compose names in. Keep one per
/// thread and reuse it across sentences: once its buffers have grown to the
/// longest token and feature name seen, composing features allocates
/// nothing.
struct TemplateScratch {
  /// lowered[i] = ASCII-lowercased token i of the current sentence (each
  /// token is lowercased once per sentence). Never shrinks, so entries past
  /// `length` keep their capacity for the next sentence.
  std::vector<std::string> lowered;
  std::size_t length = 0;  ///< tokens in the current sentence
  std::string name;        ///< the feature name being composed
  std::string word;        ///< a derived word (lemma, padded token)
  std::string phrase;      ///< gazetteer candidate phrase

  inline static const std::string kBos{"<s>"};
  inline static const std::string kEos{"</s>"};

  /// Lowercase tokens [lo, hi) of `sentence` and make it the current one.
  void lower(const text::Sentence& sentence, std::size_t lo, std::size_t hi);

  /// Lowercased token at `position`; "<s>" / "</s>" outside the sentence.
  [[nodiscard]] const std::string& lowered_at(long long position) const noexcept {
    if (position < 0) return kBos;
    if (position >= static_cast<long long>(length)) return kEos;
    return lowered[static_cast<std::size_t>(position)];
  }
};

/// Which templates a pass composes. kLocal templates are a function of the
/// token alone (W, WL, LEMMA, SHAPE, CSHAPE, PRE/SUF, CN, orthographic, LEN,
/// BR, EMB); kContext templates read its neighbours or the whole sentence
/// (C, BG, BRC, EMBC, gazetteer, POS).
enum class Templates : unsigned { kLocal = 1, kContext = 2, kAll = 3 };

class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureConfig config);

  [[nodiscard]] const FeatureConfig& config() const noexcept { return config_; }

  /// Process-unique identity of this extractor's feature function (copies
  /// share it: they compute the same features). Caches of extracted
  /// features key on it.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }

  /// The one definition of the feature templates. Composes every feature of
  /// every position of `sentence` (restricted to `which`) and passes it to
  /// `sink`, in extract()'s order: each position's templates, then
  /// gazetteer matches, then POS. Leaves `scratch.lowered` holding the
  /// sentence's lowercased tokens. Thread-safe: extraction only reads the
  /// config and the (immutable) embedding resources.
  void for_each_feature(const text::Sentence& sentence, TemplateScratch& scratch,
                        FeatureSink sink, Templates which = Templates::kAll) const;

  /// The per-position templates of one position (restricted to `which`;
  /// never gazetteer or POS). `scratch` must hold the sentence's lowercased
  /// tokens within the context window of `position`, as for_each_feature
  /// leaves them.
  void for_each_feature_at(const text::Sentence& sentence, std::size_t position,
                           TemplateScratch& scratch, FeatureSink sink,
                           Templates which) const;

  /// Extract features for every position of a sentence.
  [[nodiscard]] std::vector<TokenFeatures> extract(const text::Sentence& sentence) const;

  /// Features of a single position (exposed for the graph builder, which
  /// represents a 3-gram occurrence by its center token's features).
  [[nodiscard]] TokenFeatures extract_at(const text::Sentence& sentence,
                                         std::size_t position) const;

 private:
  FeatureConfig config_;
  std::uint64_t serial_;
  std::vector<std::string> context_names_;  ///< "C[-w]=" .. "C[w]=", 0 skipped
  std::vector<std::string> prefix_names_;   ///< "PRE1=" .. "PRE<max>="
  std::vector<std::string> suffix_names_;   ///< "SUF1=" .. "SUF<max>="
};

/// True for token strings that look like Roman numerals (II, IV, ...).
[[nodiscard]] bool is_roman_numeral(std::string_view token) noexcept;

/// True for spelled Greek letters (alpha, beta, ...), in any letter case.
[[nodiscard]] bool is_greek_letter(std::string_view token) noexcept;

}  // namespace graphner::features
