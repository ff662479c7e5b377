// Bridges string features to the CRF's dense ids.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/crf/dataset.hpp"
#include "src/crf/feature_index.hpp"
#include "src/crf/state_space.hpp"
#include "src/features/extractor.hpp"
#include "src/text/sentence.hpp"
#include "src/util/strings.hpp"

namespace graphner::features {

/// Encode a sentence for training: interns unseen feature names and encodes
/// the gold tags through `space`.
[[nodiscard]] crf::EncodedSentence encode_for_training(
    const text::Sentence& sentence, const FeatureExtractor& extractor,
    crf::FeatureIndex& index, const crf::StateSpace& space);

/// Encode a sentence for inference: unknown feature names are dropped.
[[nodiscard]] crf::EncodedSentence encode_for_inference(
    const text::Sentence& sentence, const FeatureExtractor& extractor,
    const crf::FeatureIndex& index);

/// Memo of token-local feature rows: for each in-vocabulary token (its
/// "W=" name is in the index) encoded so far, the sorted ids of its
/// Templates::kLocal features. Its size is bounded by the index's "W="
/// vocabulary. Valid for one (index, extractor) pair, identified by their
/// serials, and emptied when either changes.
struct TokenMemo {
  std::uint64_t index_serial = 0;
  std::uint64_t extractor_serial = 0;
  /// token -> [begin, end) of its row in `ids`
  std::unordered_map<std::string, std::pair<std::uint32_t, std::uint32_t>,
                     util::StringHash, std::equal_to<>>
      rows;
  std::vector<crf::FeatureIndex::Id> ids;
};

/// Reusable buffers for the in-place inference encoder. One per serving
/// worker (no locks: nothing in it is shared): the template buffers, the id
/// rows and the token memo keep their contents across sentences, so once
/// warm, encoding allocates nothing. After a call, `text.lowered` holds the
/// sentence's lowercased tokens (the blended decode builds its trigram keys
/// from them).
struct EncodeScratch {
  TemplateScratch text;
  crf::EncodedSentence encoded;
  /// Id rows of earlier, longer sentences, kept with their capacity.
  std::vector<std::vector<crf::FeatureIndex::Id>> parked_rows;
  std::vector<crf::FeatureIndex::Id> local;   ///< a memo miss's local ids
  std::vector<crf::FeatureIndex::Id> merged;  ///< context + local ids
  TokenMemo memo;
  std::string trigram_key;  ///< the blended decode's reference-table key
};

/// In-place variant of encode_for_inference for hot tagging paths; returns
/// a reference to `scratch.encoded`, valid until the next call.
const crf::EncodedSentence& encode_for_inference(
    const text::Sentence& sentence, const FeatureExtractor& extractor,
    const crf::FeatureIndex& index, EncodeScratch& scratch);

/// Batch helpers.
[[nodiscard]] crf::Batch encode_batch_for_training(
    const std::vector<text::Sentence>& sentences, const FeatureExtractor& extractor,
    crf::FeatureIndex& index, const crf::StateSpace& space);

}  // namespace graphner::features
