#include "src/features/encoder.hpp"

#include <algorithm>
#include <cassert>

namespace graphner::features {
namespace {

void sort_unique(std::vector<crf::FeatureIndex::Id>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

crf::EncodedSentence encode_for_training(const text::Sentence& sentence,
                                         const FeatureExtractor& extractor,
                                         crf::FeatureIndex& index,
                                         const crf::StateSpace& space) {
  assert(sentence.has_tags());
  crf::EncodedSentence out;
  out.features.reserve(sentence.size());
  for (const auto& features : extractor.extract(sentence)) {
    std::vector<crf::FeatureIndex::Id> ids;
    ids.reserve(features.size());
    for (const auto& name : features) ids.push_back(index.intern(name));
    sort_unique(ids);
    out.features.push_back(std::move(ids));
  }
  out.states = space.encode(sentence.tags);
  return out;
}

crf::EncodedSentence encode_for_inference(const text::Sentence& sentence,
                                          const FeatureExtractor& extractor,
                                          const crf::FeatureIndex& index) {
  crf::EncodedSentence out;
  out.features.reserve(sentence.size());
  for (const auto& features : extractor.extract(sentence)) {
    std::vector<crf::FeatureIndex::Id> ids;
    ids.reserve(features.size());
    for (const auto& name : features)
      if (const auto id = index.find(name)) ids.push_back(*id);
    sort_unique(ids);
    out.features.push_back(std::move(ids));
  }
  return out;
}

const crf::EncodedSentence& encode_for_inference(const text::Sentence& sentence,
                                                 const FeatureExtractor& extractor,
                                                 const crf::FeatureIndex& index,
                                                 EncodeScratch& scratch) {
  extractor.extract_into(sentence, scratch.features);
  auto& rows = scratch.encoded.features;
  if (rows.size() > sentence.size()) rows.resize(sentence.size());
  rows.reserve(sentence.size());
  while (rows.size() < sentence.size()) rows.emplace_back();
  for (std::size_t i = 0; i < sentence.size(); ++i) {
    rows[i].clear();
    rows[i].reserve(scratch.features[i].size());
    for (const auto& name : scratch.features[i])
      if (const auto id = index.find(name)) rows[i].push_back(*id);
    sort_unique(rows[i]);
  }
  scratch.encoded.states.clear();
  return scratch.encoded;
}

crf::Batch encode_batch_for_training(const std::vector<text::Sentence>& sentences,
                                     const FeatureExtractor& extractor,
                                     crf::FeatureIndex& index,
                                     const crf::StateSpace& space) {
  crf::Batch batch;
  batch.reserve(sentences.size());
  for (const auto& s : sentences)
    if (s.size() > 0) batch.push_back(encode_for_training(s, extractor, index, space));
  return batch;
}

}  // namespace graphner::features
