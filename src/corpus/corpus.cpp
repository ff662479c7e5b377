#include "src/corpus/corpus.hpp"

#include <unordered_map>

#include "src/text/bio.hpp"
#include "src/util/rng.hpp"

namespace graphner::corpus {

std::size_t LabelledCorpus::train_token_count() const noexcept {
  std::size_t n = 0;
  for (const auto& s : train) n += s.size();
  return n;
}

CorpusStats compute_stats(const LabelledCorpus& corpus) {
  CorpusStats stats;
  stats.train_sentences = corpus.train.size();
  stats.test_sentences = corpus.test.size();

  std::size_t train_positive = 0;
  for (const auto& s : corpus.train) {
    stats.train_tokens += s.size();
    train_positive += text::positive_token_count(s.tags);
    stats.train_mentions += text::decode_bio(s.tags).size();
  }
  std::size_t test_positive = 0;
  for (const auto& s : corpus.test) {
    stats.test_tokens += s.size();
    test_positive += text::positive_token_count(s.tags);
    stats.test_mentions += text::decode_bio(s.tags).size();
  }
  if (stats.train_tokens > 0)
    stats.train_positive_token_rate =
        static_cast<double>(train_positive) / static_cast<double>(stats.train_tokens);
  if (stats.test_tokens > 0)
    stats.test_positive_token_rate =
        static_cast<double>(test_positive) / static_cast<double>(stats.test_tokens);
  return stats;
}

LabelledCorpus resplit(const LabelledCorpus& corpus, double train_fraction,
                       std::uint64_t seed) {
  // Index the per-sentence annotation metadata so re-split test sentences
  // that originated in the test half keep their alternatives/truth.
  std::unordered_map<std::string, std::vector<text::Annotation>> alts;
  std::unordered_map<std::string, std::vector<text::Annotation>> truth;
  for (const auto& a : corpus.test_alternatives) alts[a.sentence_id].push_back(a);
  for (const auto& a : corpus.test_truth) truth[a.sentence_id].push_back(a);

  std::vector<const text::Sentence*> all;
  all.reserve(corpus.train.size() + corpus.test.size());
  for (const auto& s : corpus.train) all.push_back(&s);
  for (const auto& s : corpus.test) all.push_back(&s);

  util::Rng rng(seed);
  rng.shuffle(all);

  const auto cut = static_cast<std::size_t>(
      train_fraction * static_cast<double>(all.size()));

  LabelledCorpus out;
  out.name = corpus.name;
  out.gene_related_tokens = corpus.gene_related_tokens;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const text::Sentence& s = *all[i];
    if (i < cut) {
      out.train.push_back(s);
      continue;
    }
    out.test.push_back(s);
    // Primary gold comes from the observed tags for every test sentence.
    for (auto& ann : text::annotations_from_tags(s)) out.test_gold.push_back(std::move(ann));
    if (auto it = alts.find(s.id); it != alts.end())
      out.test_alternatives.insert(out.test_alternatives.end(), it->second.begin(),
                                   it->second.end());
    if (auto it = truth.find(s.id); it != truth.end()) {
      out.test_truth.insert(out.test_truth.end(), it->second.begin(), it->second.end());
    } else {
      // Train-origin sentence: best available truth is the observed gold.
      for (auto& ann : text::annotations_from_tags(s)) out.test_truth.push_back(std::move(ann));
    }
  }
  return out;
}

}  // namespace graphner::corpus
