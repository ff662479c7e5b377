// The labelled-corpus container plus summary statistics.
#pragma once

#include <string>
#include <vector>

#include "src/text/annotation.hpp"
#include "src/text/sentence.hpp"

namespace graphner::corpus {

/// A generated corpus in the BC2GM layout: tokenized sentences whose tags
/// carry the *observed* (possibly noisy) gold standard, plus the annotation
/// files the shared-task evaluator consumes. `test_truth` keeps the
/// pristine pre-noise annotations for error analysis only — no model or
/// evaluator ever sees it.
struct LabelledCorpus {
  std::string name;

  std::vector<text::Sentence> train;  ///< tags = observed gold
  std::vector<text::Sentence> test;   ///< tags = observed gold

  std::vector<text::Annotation> test_gold;          ///< primary (GENE.eval)
  std::vector<text::Annotation> test_alternatives;  ///< ALTGENE.eval
  std::vector<text::Annotation> test_truth;         ///< noise-free truth

  /// Lowercased tokens that occur inside any lexicon gene variant; used to
  /// categorize errors as gene-related vs spurious (paper §III-E).
  std::vector<std::string> gene_related_tokens;

  [[nodiscard]] std::size_t train_token_count() const noexcept;
};

/// Corpus-level statistics reported by the harnesses (paper §III-D).
struct CorpusStats {
  std::size_t train_sentences = 0;
  std::size_t test_sentences = 0;
  std::size_t train_tokens = 0;
  std::size_t test_tokens = 0;
  std::size_t train_mentions = 0;
  std::size_t test_mentions = 0;
  double train_positive_token_rate = 0.0;
  double test_positive_token_rate = 0.0;
};

[[nodiscard]] CorpusStats compute_stats(const LabelledCorpus& corpus);

/// Re-split a corpus: merge train+test and cut at `train_fraction` (used by
/// the Fig. 2 timing sweep and cross-validation). Annotations for the new
/// test side are regenerated from the observed tags; alternatives/truth for
/// sentences that came from the original test side are carried over.
[[nodiscard]] LabelledCorpus resplit(const LabelledCorpus& corpus,
                                     double train_fraction, std::uint64_t seed);

}  // namespace graphner::corpus
