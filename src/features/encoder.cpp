#include "src/features/encoder.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <span>

namespace graphner::features {
namespace {

void sort_unique(std::vector<crf::FeatureIndex::Id>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// The sorted ids of token `i`'s local templates: its memo row, or composed
/// live (and memoized if the token is in vocabulary, i.e. its "W=" name is
/// in the index). Valid until the next call.
std::span<const crf::FeatureIndex::Id> local_ids(const text::Sentence& sentence,
                                                 std::size_t i,
                                                 const FeatureExtractor& extractor,
                                                 const crf::FeatureIndex& index,
                                                 EncodeScratch& scratch) {
  TokenMemo& memo = scratch.memo;
  const std::string& token = sentence.tokens[i];
  if (const auto hit = memo.rows.find(std::string_view(token)); hit != memo.rows.end()) {
    const auto [begin, end] = hit->second;
    return {memo.ids.data() + begin, end - begin};
  }
  auto& live = scratch.local;
  live.clear();
  extractor.for_each_feature_at(
      sentence, i, scratch.text,
      [&](std::size_t, std::string_view name) {
        if (const auto id = index.find(name)) live.push_back(*id);
      },
      Templates::kLocal);
  sort_unique(live);
  std::string& name = scratch.text.name;
  name.assign("W=");
  name += token;
  if (index.find(name)) {
    const auto begin = static_cast<std::uint32_t>(memo.ids.size());
    memo.ids.insert(memo.ids.end(), live.begin(), live.end());
    memo.rows.emplace(token, std::pair(begin, static_cast<std::uint32_t>(memo.ids.size())));
  }
  return live;
}

}  // namespace

crf::EncodedSentence encode_for_training(const text::Sentence& sentence,
                                         const FeatureExtractor& extractor,
                                         crf::FeatureIndex& index,
                                         const crf::StateSpace& space) {
  assert(sentence.has_tags());
  // Interned from extract()'s rows, position by position: ids follow the
  // row-major order of first occurrence, which fixes the model file's
  // feature-name order.
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
  EncodeScratch scratch;
  encode_for_inference(sentence, extractor, index, scratch);
  return std::move(scratch.encoded);
}

const crf::EncodedSentence& encode_for_inference(const text::Sentence& sentence,
                                                 const FeatureExtractor& extractor,
                                                 const crf::FeatureIndex& index,
                                                 EncodeScratch& scratch) {
  // Size the rows to the sentence. Rows past its end are parked, not
  // destroyed, so every row keeps its capacity for longer sentences.
  auto& rows = scratch.encoded.features;
  auto& parked = scratch.parked_rows;
  const std::size_t n = sentence.size();
  for (; rows.size() > n; rows.pop_back()) parked.push_back(std::move(rows.back()));
  for (; rows.size() < n && !parked.empty(); parked.pop_back())
    rows.push_back(std::move(parked.back()));
  while (rows.size() < n) rows.emplace_back();
  for (auto& row : rows) row.clear();
  scratch.encoded.states.clear();

  // Context templates are looked up live for every position ...
  extractor.for_each_feature(
      sentence, scratch.text,
      [&](std::size_t position, std::string_view name) {
        if (const auto id = index.find(name)) rows[position].push_back(*id);
      },
      Templates::kContext);

  // ... and each token's local templates come from the memo.
  TokenMemo& memo = scratch.memo;
  if (memo.index_serial != index.serial() || memo.extractor_serial != extractor.serial()) {
    memo.rows.clear();
    memo.ids.clear();
    memo.index_serial = index.serial();
    memo.extractor_serial = extractor.serial();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto local = local_ids(sentence, i, extractor, index, scratch);
    auto& row = rows[i];
    sort_unique(row);
    scratch.merged.clear();
    std::set_union(row.begin(), row.end(), local.begin(), local.end(),
                   std::back_inserter(scratch.merged));
    row.assign(scratch.merged.begin(), scratch.merged.end());
  }
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
