// Neural sequence-tagging baselines (paper Tables I and II):
//   * LSTM-CRF (Lample et al. 2016): word embeddings + character BiLSTM,
//     concatenated, fed to a sentence BiLSTM with a CRF output layer.
//   * Char-attention (Rei et al. 2016): instead of concatenation, a learned
//     sigmoid gate z mixes the word and character representations,
//     x = z (.) w + (1 - z) (.) c.
// Trained with Adam + BPTT and early stopping on a held-out dev split
// (both published systems require a dev set; paper §III notes the same).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/embeddings/word2vec.hpp"
#include "src/neural/lstm.hpp"
#include "src/neural/tensor.hpp"
#include "src/text/sentence.hpp"

namespace graphner::neural {

enum class CharCombine {
  kConcat,     ///< LSTM-CRF (Lample et al.)
  kAttention,  ///< char-attention gating (Rei et al.)
};

struct BiLstmCrfConfig {
  std::size_t word_dim = 16;
  std::size_t char_dim = 8;
  std::size_t char_hidden = 8;  ///< per direction; char repr = 2 * char_hidden
  std::size_t hidden = 20;      ///< per direction
  CharCombine combine = CharCombine::kConcat;
  std::size_t epochs = 8;
  double learning_rate = 0.003;
  double gradient_clip = 5.0;
  std::size_t min_word_count = 2;
  double dev_fraction = 0.15;
  std::uint64_t seed = 3;
  bool verbose = false;
  /// Optional pretrained word2vec model: in-vocabulary word embeddings are
  /// initialized from it (truncated/padded to word_dim), as the published
  /// LSTM-CRF baselines initialize from pretrained embeddings. Non-owning;
  /// only used during construction.
  const embeddings::Word2Vec* pretrained = nullptr;
};

class BiLstmCrfTagger {
 public:
  static BiLstmCrfTagger train(const std::vector<text::Sentence>& labelled,
                               const BiLstmCrfConfig& config);

  [[nodiscard]] std::vector<text::Tag> predict(const text::Sentence& sentence) const;

  /// Negative log-likelihood of a labelled sentence under the current
  /// parameters (exposed for the finite-difference gradient tests).
  [[nodiscard]] double loss(const text::Sentence& sentence) const;

  /// One forward+backward+update step (exposed for tests).
  double train_step(const text::Sentence& sentence);

  [[nodiscard]] std::vector<Param*> parameters();

  /// Construct an untrained model over the given training vocabulary
  /// (exposed for tests; normal users call train()).
  BiLstmCrfTagger(const std::vector<text::Sentence>& vocab_source,
                  const BiLstmCrfConfig& config);

 private:
  struct Forward;  // per-sentence activation caches (defined in .cpp)

  [[nodiscard]] std::size_t word_id(const std::string& token) const;
  [[nodiscard]] std::size_t char_id(char c) const;
  void run_forward(const text::Sentence& sentence, Forward& fwd) const;
  double backward(const text::Sentence& sentence, Forward& fwd);

  BiLstmCrfConfig config_;
  std::unordered_map<std::string, std::size_t> word_index_;  ///< lowercased
  std::size_t char_count_ = 0;

  Param word_embeddings_;
  Param char_embeddings_;
  LstmCell char_fwd_;
  LstmCell char_bwd_;
  Param gate_w_;  ///< attention combine only: word_dim x (word_dim + char repr)
  Param gate_b_;
  LstmCell main_fwd_;
  LstmCell main_bwd_;
  Param proj_w_;  ///< 3 x (2 * hidden)
  Param proj_b_;  ///< 3 x 1
  Param crf_transition_;  ///< 3 x 3
  Param crf_start_;       ///< 3 x 1

  // Adam optimizer state lives in the Params; this counter is in train().
};

}  // namespace graphner::neural
