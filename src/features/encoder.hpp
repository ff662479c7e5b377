// Bridges string features to the CRF's dense ids.
#pragma once

#include <vector>

#include "src/crf/dataset.hpp"
#include "src/crf/feature_index.hpp"
#include "src/crf/state_space.hpp"
#include "src/features/extractor.hpp"
#include "src/text/sentence.hpp"

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

/// Reusable buffers for the in-place inference encoder. One per serving
/// worker: both the string-feature staging area and the encoded id rows
/// keep their capacity across sentences, so steady-state encoding does no
/// per-sentence vector reallocation.
struct EncodeScratch {
  std::vector<TokenFeatures> features;
  crf::EncodedSentence encoded;
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
