#include "src/neural/bilstm_crf.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "src/neural/adam.hpp"
#include "src/text/bio.hpp"
#include "src/util/logging.hpp"
#include "src/util/math.hpp"
#include "src/util/strings.hpp"

namespace graphner::neural {

using text::kNumTags;
using text::Tag;

namespace {
constexpr std::size_t kUnk = 0;
constexpr std::size_t kNumChars = 128;
}  // namespace

/// Per-sentence activation caches for one forward pass.
struct BiLstmCrfTagger::Forward {
  std::size_t n = 0;
  std::vector<std::size_t> word_ids;
  std::vector<std::vector<std::size_t>> char_ids;  ///< per word
  std::vector<LstmRunner> char_fwd;
  std::vector<LstmRunner> char_bwd;
  std::vector<std::vector<float>> word_vecs;
  std::vector<std::vector<float>> char_reprs;  ///< 2 * char_hidden
  std::vector<std::vector<float>> gate_z;      ///< attention combine only
  std::vector<std::vector<float>> combined;    ///< main BiLSTM inputs
  LstmRunner main_fwd;
  LstmRunner main_bwd;
  std::vector<std::vector<float>> h;  ///< 2 * hidden per position
  std::vector<std::array<double, kNumTags>> emissions;
};

BiLstmCrfTagger::BiLstmCrfTagger(const std::vector<text::Sentence>& vocab_source,
                                 const BiLstmCrfConfig& config)
    : config_(config) {
  // Vocabulary from training counts.
  std::unordered_map<std::string, std::size_t> counts;
  for (const auto& s : vocab_source)
    for (const auto& tok : s.tokens) ++counts[util::to_lower(tok)];
  word_index_.clear();
  std::size_t next = kUnk + 1;
  for (const auto& [word, count] : counts)
    if (count >= config.min_word_count) word_index_.emplace(word, next++);
  char_count_ = kNumChars;

  util::Rng rng(config.seed);
  word_embeddings_ = Param(next, config.word_dim);
  word_embeddings_.init(rng);
  if (config.pretrained != nullptr) {
    std::size_t initialized = 0;
    for (const auto& [word, id] : word_index_) {
      const auto vec = config.pretrained->vector(word);
      if (!vec) continue;
      float* row = word_embeddings_.value.row(id);
      const std::size_t dims = std::min<std::size_t>(config.word_dim, vec->size());
      for (std::size_t d = 0; d < dims; ++d) row[d] = (*vec)[d];
      ++initialized;
    }
    util::log_debug("bilstm-crf: ", initialized, " of ", word_index_.size(),
                    " word embeddings initialized from word2vec");
  }
  char_embeddings_ = Param(char_count_, config.char_dim);
  char_embeddings_.init(rng);
  char_fwd_ = LstmCell(config.char_dim, config.char_hidden);
  char_bwd_ = LstmCell(config.char_dim, config.char_hidden);
  char_fwd_.init(rng);
  char_bwd_.init(rng);

  const std::size_t char_repr = 2 * config.char_hidden;
  std::size_t main_input = config.word_dim + char_repr;
  if (config.combine == CharCombine::kAttention) {
    assert(char_repr == config.word_dim &&
           "attention combine requires word_dim == 2 * char_hidden");
    gate_w_ = Param(config.word_dim, config.word_dim + char_repr);
    gate_b_ = Param(config.word_dim, 1);
    gate_w_.init(rng);
    main_input = config.word_dim;
  }
  main_fwd_ = LstmCell(main_input, config.hidden);
  main_bwd_ = LstmCell(main_input, config.hidden);
  main_fwd_.init(rng);
  main_bwd_.init(rng);
  proj_w_ = Param(kNumTags, 2 * config.hidden);
  proj_b_ = Param(kNumTags, 1);
  proj_w_.init(rng);
  crf_transition_ = Param(kNumTags, kNumTags);
  crf_start_ = Param(kNumTags, 1);
}

std::size_t BiLstmCrfTagger::word_id(const std::string& token) const {
  const auto it = word_index_.find(util::to_lower(token));
  return it == word_index_.end() ? kUnk : it->second;
}

std::size_t BiLstmCrfTagger::char_id(char c) const {
  return static_cast<unsigned char>(c) % kNumChars;
}

std::vector<Param*> BiLstmCrfTagger::parameters() {
  std::vector<Param*> out = {&word_embeddings_, &char_embeddings_,
                             &proj_w_,          &proj_b_,
                             &crf_transition_,  &crf_start_};
  for (Param* p : char_fwd_.params()) out.push_back(p);
  for (Param* p : char_bwd_.params()) out.push_back(p);
  for (Param* p : main_fwd_.params()) out.push_back(p);
  for (Param* p : main_bwd_.params()) out.push_back(p);
  if (config_.combine == CharCombine::kAttention) {
    out.push_back(&gate_w_);
    out.push_back(&gate_b_);
  }
  return out;
}

void BiLstmCrfTagger::run_forward(const text::Sentence& sentence, Forward& fwd) const {
  const std::size_t n = sentence.size();
  const std::size_t char_repr = 2 * config_.char_hidden;
  fwd.n = n;
  fwd.word_ids.resize(n);
  fwd.char_ids.assign(n, {});
  fwd.char_fwd.resize(n);
  fwd.char_bwd.resize(n);
  fwd.word_vecs.assign(n, std::vector<float>(config_.word_dim));
  fwd.char_reprs.assign(n, std::vector<float>(char_repr, 0.0F));
  fwd.combined.clear();
  fwd.gate_z.clear();

  for (std::size_t t = 0; t < n; ++t) {
    const std::string& token = sentence.tokens[t];
    fwd.word_ids[t] = word_id(token);
    const float* emb = word_embeddings_.value.row(fwd.word_ids[t]);
    std::copy(emb, emb + config_.word_dim, fwd.word_vecs[t].begin());

    // Character encoder.
    std::vector<std::vector<float>> chars_f;
    chars_f.reserve(token.size());
    for (const char c : token) {
      fwd.char_ids[t].push_back(char_id(c));
      const float* ce = char_embeddings_.value.row(char_id(c));
      chars_f.emplace_back(ce, ce + config_.char_dim);
    }
    if (chars_f.empty())
      chars_f.emplace_back(config_.char_dim, 0.0F);  // degenerate empty token
    std::vector<std::vector<float>> chars_b(chars_f.rbegin(), chars_f.rend());
    fwd.char_fwd[t].forward(char_fwd_, chars_f);
    fwd.char_bwd[t].forward(char_bwd_, chars_b);
    const auto& hf = fwd.char_fwd[t].outputs().back();
    const auto& hb = fwd.char_bwd[t].outputs().back();
    std::copy(hf.begin(), hf.end(), fwd.char_reprs[t].begin());
    std::copy(hb.begin(), hb.end(),
              fwd.char_reprs[t].begin() + static_cast<long>(config_.char_hidden));
  }

  // Combine word + char representations.
  if (config_.combine == CharCombine::kConcat) {
    fwd.combined.assign(n, std::vector<float>(config_.word_dim + char_repr));
    for (std::size_t t = 0; t < n; ++t) {
      std::copy(fwd.word_vecs[t].begin(), fwd.word_vecs[t].end(),
                fwd.combined[t].begin());
      std::copy(fwd.char_reprs[t].begin(), fwd.char_reprs[t].end(),
                fwd.combined[t].begin() + static_cast<long>(config_.word_dim));
    }
  } else {
    fwd.gate_z.assign(n, std::vector<float>(config_.word_dim));
    fwd.combined.assign(n, std::vector<float>(config_.word_dim));
    std::vector<float> concat(config_.word_dim + char_repr);
    for (std::size_t t = 0; t < n; ++t) {
      std::copy(fwd.word_vecs[t].begin(), fwd.word_vecs[t].end(), concat.begin());
      std::copy(fwd.char_reprs[t].begin(), fwd.char_reprs[t].end(),
                concat.begin() + static_cast<long>(config_.word_dim));
      std::vector<float> pre(config_.word_dim);
      for (std::size_t j = 0; j < config_.word_dim; ++j)
        pre[j] = gate_b_.value.data[j];
      matvec_accum(gate_w_.value, concat.data(), pre.data());
      for (std::size_t j = 0; j < config_.word_dim; ++j) {
        const float z = sigmoidf(pre[j]);
        fwd.gate_z[t][j] = z;
        fwd.combined[t][j] =
            z * fwd.word_vecs[t][j] + (1.0F - z) * fwd.char_reprs[t][j];
      }
    }
  }

  // Sentence BiLSTM.
  std::vector<std::vector<float>> reversed(fwd.combined.rbegin(), fwd.combined.rend());
  fwd.main_fwd.forward(main_fwd_, fwd.combined);
  fwd.main_bwd.forward(main_bwd_, reversed);
  fwd.h.assign(n, std::vector<float>(2 * config_.hidden));
  for (std::size_t t = 0; t < n; ++t) {
    const auto& hf = fwd.main_fwd.outputs()[t];
    const auto& hb = fwd.main_bwd.outputs()[n - 1 - t];
    std::copy(hf.begin(), hf.end(), fwd.h[t].begin());
    std::copy(hb.begin(), hb.end(),
              fwd.h[t].begin() + static_cast<long>(config_.hidden));
  }

  // Emission scores.
  fwd.emissions.assign(n, {});
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t k = 0; k < kNumTags; ++k) {
      float acc = proj_b_.value.data[k];
      const float* wr = proj_w_.value.row(k);
      for (std::size_t j = 0; j < 2 * config_.hidden; ++j) acc += wr[j] * fwd.h[t][j];
      fwd.emissions[t][k] = acc;
    }
  }
}

namespace {

/// CRF-layer forward-backward over 3 tags; returns logZ, node and pairwise
/// marginals. Unconstrained (the model learns the BIO transitions).
struct CrfMarginals {
  double log_z = 0.0;
  std::vector<std::array<double, kNumTags>> node;
  std::vector<std::array<double, kNumTags * kNumTags>> pairwise;  ///< [t] for (t-1 -> t)
};

CrfMarginals crf_forward_backward(
    const std::vector<std::array<double, kNumTags>>& emissions,
    const Matrix& transition, const Matrix& start) {
  const std::size_t n = emissions.size();
  CrfMarginals out;
  std::vector<std::array<double, kNumTags>> alpha(n);
  std::vector<std::array<double, kNumTags>> beta(n);

  for (std::size_t k = 0; k < kNumTags; ++k)
    alpha[0][k] = start.data[k] + emissions[0][k];
  for (std::size_t t = 1; t < n; ++t) {
    for (std::size_t k = 0; k < kNumTags; ++k) {
      double acc = util::kNegInf;
      for (std::size_t p = 0; p < kNumTags; ++p)
        acc = util::log_add(acc, alpha[t - 1][p] + transition.at(p, k));
      alpha[t][k] = acc + emissions[t][k];
    }
  }
  out.log_z = util::log_sum_exp(std::span<const double>(alpha[n - 1].data(), kNumTags));

  for (std::size_t k = 0; k < kNumTags; ++k) beta[n - 1][k] = 0.0;
  for (std::size_t t = n - 1; t-- > 0;) {
    for (std::size_t p = 0; p < kNumTags; ++p) {
      double acc = util::kNegInf;
      for (std::size_t k = 0; k < kNumTags; ++k)
        acc = util::log_add(acc, transition.at(p, k) + emissions[t + 1][k] + beta[t + 1][k]);
      beta[t][p] = acc;
    }
  }

  out.node.assign(n, {});
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t k = 0; k < kNumTags; ++k)
      out.node[t][k] = std::exp(alpha[t][k] + beta[t][k] - out.log_z);

  out.pairwise.assign(n, {});
  for (std::size_t t = 1; t < n; ++t)
    for (std::size_t p = 0; p < kNumTags; ++p)
      for (std::size_t k = 0; k < kNumTags; ++k)
        out.pairwise[t][p * kNumTags + k] =
            std::exp(alpha[t - 1][p] + transition.at(p, k) + emissions[t][k] +
                     beta[t][k] - out.log_z);
  return out;
}

}  // namespace

double BiLstmCrfTagger::loss(const text::Sentence& sentence) const {
  assert(sentence.has_tags() && sentence.size() > 0);
  Forward fwd;
  run_forward(sentence, fwd);
  const CrfMarginals marginals =
      crf_forward_backward(fwd.emissions, crf_transition_.value, crf_start_.value);
  double gold = crf_start_.value.data[text::tag_index(sentence.tags[0])] +
                fwd.emissions[0][text::tag_index(sentence.tags[0])];
  for (std::size_t t = 1; t < fwd.n; ++t) {
    gold += crf_transition_.value.at(text::tag_index(sentence.tags[t - 1]),
                                     text::tag_index(sentence.tags[t]));
    gold += fwd.emissions[t][text::tag_index(sentence.tags[t])];
  }
  return marginals.log_z - gold;
}

double BiLstmCrfTagger::backward(const text::Sentence& sentence, Forward& fwd) {
  const std::size_t n = fwd.n;
  const CrfMarginals marginals =
      crf_forward_backward(fwd.emissions, crf_transition_.value, crf_start_.value);

  // NLL and CRF-layer gradients (expected - observed).
  double gold = crf_start_.value.data[text::tag_index(sentence.tags[0])] +
                fwd.emissions[0][text::tag_index(sentence.tags[0])];
  std::vector<std::array<double, kNumTags>> d_emit(n, std::array<double, kNumTags>{});
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t k = 0; k < kNumTags; ++k) d_emit[t][k] = marginals.node[t][k];
  d_emit[0][text::tag_index(sentence.tags[0])] -= 1.0;
  for (std::size_t k = 0; k < kNumTags; ++k)
    crf_start_.grad.data[k] += static_cast<float>(
        marginals.node[0][k] - (k == text::tag_index(sentence.tags[0]) ? 1.0 : 0.0));
  for (std::size_t t = 1; t < n; ++t) {
    const std::size_t gp = text::tag_index(sentence.tags[t - 1]);
    const std::size_t gk = text::tag_index(sentence.tags[t]);
    gold += crf_transition_.value.at(gp, gk) + fwd.emissions[t][gk];
    d_emit[t][gk] -= 1.0;
    for (std::size_t p = 0; p < kNumTags; ++p)
      for (std::size_t k = 0; k < kNumTags; ++k)
        crf_transition_.grad.at(p, k) += static_cast<float>(
            marginals.pairwise[t][p * kNumTags + k] -
            ((p == gp && k == gk) ? 1.0 : 0.0));
  }
  const double nll = marginals.log_z - gold;

  // Projection backward -> dh.
  std::vector<std::vector<float>> dh(n, std::vector<float>(2 * config_.hidden, 0.0F));
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t k = 0; k < kNumTags; ++k) {
      const auto g = static_cast<float>(d_emit[t][k]);
      proj_b_.grad.data[k] += g;
      float* dwr = proj_w_.grad.row(k);
      const float* wr = proj_w_.value.row(k);
      for (std::size_t j = 0; j < 2 * config_.hidden; ++j) {
        dwr[j] += g * fwd.h[t][j];
        dh[t][j] += g * wr[j];
      }
    }
  }

  // Main BiLSTM backward.
  std::vector<std::vector<float>> dh_fwd(n, std::vector<float>(config_.hidden));
  std::vector<std::vector<float>> dh_bwd(n, std::vector<float>(config_.hidden));
  for (std::size_t t = 0; t < n; ++t) {
    std::copy(dh[t].begin(), dh[t].begin() + static_cast<long>(config_.hidden),
              dh_fwd[t].begin());
    std::copy(dh[t].begin() + static_cast<long>(config_.hidden), dh[t].end(),
              dh_bwd[n - 1 - t].begin());
  }
  std::vector<std::vector<float>> dx_fwd;
  std::vector<std::vector<float>> dx_bwd;
  fwd.main_fwd.backward(main_fwd_, dh_fwd, dx_fwd);
  fwd.main_bwd.backward(main_bwd_, dh_bwd, dx_bwd);
  std::vector<std::vector<float>> d_combined(n,
                                             std::vector<float>(fwd.combined[0].size()));
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t j = 0; j < d_combined[t].size(); ++j)
      d_combined[t][j] = dx_fwd[t][j] + dx_bwd[n - 1 - t][j];

  // Combine backward -> word-embedding and char-representation gradients.
  const std::size_t char_repr = 2 * config_.char_hidden;
  std::vector<std::vector<float>> d_char(n, std::vector<float>(char_repr, 0.0F));
  for (std::size_t t = 0; t < n; ++t) {
    float* d_word = word_embeddings_.grad.row(fwd.word_ids[t]);
    if (config_.combine == CharCombine::kConcat) {
      for (std::size_t j = 0; j < config_.word_dim; ++j) d_word[j] += d_combined[t][j];
      for (std::size_t j = 0; j < char_repr; ++j)
        d_char[t][j] = d_combined[t][config_.word_dim + j];
    } else {
      // x = z (.) w + (1-z) (.) c;  z = sigma(Wz [w;c] + bz).
      std::vector<float> d_pre(config_.word_dim);
      std::vector<float> concat(config_.word_dim + char_repr);
      std::copy(fwd.word_vecs[t].begin(), fwd.word_vecs[t].end(), concat.begin());
      std::copy(fwd.char_reprs[t].begin(), fwd.char_reprs[t].end(),
                concat.begin() + static_cast<long>(config_.word_dim));
      for (std::size_t j = 0; j < config_.word_dim; ++j) {
        const float z = fwd.gate_z[t][j];
        const float dx = d_combined[t][j];
        d_word[j] += dx * z;
        d_char[t][j] += dx * (1.0F - z);
        const float dz = dx * (fwd.word_vecs[t][j] - fwd.char_reprs[t][j]);
        d_pre[j] = dz * z * (1.0F - z);
        gate_b_.grad.data[j] += d_pre[j];
      }
      std::vector<float> d_concat(concat.size(), 0.0F);
      matvec_backward(gate_w_.value, concat.data(), d_pre.data(), gate_w_.grad,
                      d_concat.data());
      for (std::size_t j = 0; j < config_.word_dim; ++j) d_word[j] += d_concat[j];
      for (std::size_t j = 0; j < char_repr; ++j)
        d_char[t][j] += d_concat[config_.word_dim + j];
    }
  }

  // Char encoder backward.
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t chars = std::max<std::size_t>(1, fwd.char_ids[t].size());
    std::vector<std::vector<float>> dh_cf(chars, std::vector<float>(config_.char_hidden, 0.0F));
    std::vector<std::vector<float>> dh_cb(chars, std::vector<float>(config_.char_hidden, 0.0F));
    for (std::size_t j = 0; j < config_.char_hidden; ++j) {
      dh_cf[chars - 1][j] = d_char[t][j];
      dh_cb[chars - 1][j] = d_char[t][config_.char_hidden + j];
    }
    std::vector<std::vector<float>> dx_cf;
    std::vector<std::vector<float>> dx_cb;
    fwd.char_fwd[t].backward(char_fwd_, dh_cf, dx_cf);
    fwd.char_bwd[t].backward(char_bwd_, dh_cb, dx_cb);
    for (std::size_t c = 0; c < fwd.char_ids[t].size(); ++c) {
      float* d_ce = char_embeddings_.grad.row(fwd.char_ids[t][c]);
      for (std::size_t j = 0; j < config_.char_dim; ++j) {
        d_ce[j] += dx_cf[c][j];
        d_ce[j] += dx_cb[fwd.char_ids[t].size() - 1 - c][j];
      }
    }
  }
  return nll;
}

double BiLstmCrfTagger::train_step(const text::Sentence& sentence) {
  Forward fwd;
  run_forward(sentence, fwd);
  return backward(sentence, fwd);
}

std::vector<Tag> BiLstmCrfTagger::predict(const text::Sentence& sentence) const {
  const std::size_t n = sentence.size();
  std::vector<Tag> tags(n, Tag::kO);
  if (n == 0) return tags;
  Forward fwd;
  run_forward(sentence, fwd);

  // Viterbi with the BIO constraint enforced at decode time.
  std::vector<std::array<double, kNumTags>> score(n);
  std::vector<std::array<std::size_t, kNumTags>> back(n);
  for (std::size_t k = 0; k < kNumTags; ++k) {
    const bool legal = text::tag_from_index(k) != Tag::kI;
    score[0][k] = legal ? crf_start_.value.data[k] + fwd.emissions[0][k]
                        : util::kNegInf;
  }
  for (std::size_t t = 1; t < n; ++t) {
    for (std::size_t k = 0; k < kNumTags; ++k) {
      double best = util::kNegInf;
      std::size_t arg = 0;
      for (std::size_t p = 0; p < kNumTags; ++p) {
        if (text::is_illegal_transition(text::tag_from_index(p), text::tag_from_index(k)))
          continue;
        const double cand = score[t - 1][p] + crf_transition_.value.at(p, k);
        if (cand > best) {
          best = cand;
          arg = p;
        }
      }
      score[t][k] = best + fwd.emissions[t][k];
      back[t][k] = arg;
    }
  }
  std::size_t cur = 0;
  double best = util::kNegInf;
  for (std::size_t k = 0; k < kNumTags; ++k)
    if (score[n - 1][k] > best) {
      best = score[n - 1][k];
      cur = k;
    }
  for (std::size_t t = n; t-- > 0;) {
    tags[t] = text::tag_from_index(cur);
    if (t > 0) cur = back[t][cur];
  }
  return tags;
}

BiLstmCrfTagger BiLstmCrfTagger::train(const std::vector<text::Sentence>& labelled,
                                       const BiLstmCrfConfig& config) {
  // Dev split for early stopping (the published systems require one).
  util::Rng rng(config.seed ^ 0xdeadbeefULL);
  std::vector<const text::Sentence*> pool;
  for (const auto& s : labelled)
    if (s.size() > 0 && s.has_tags()) pool.push_back(&s);
  rng.shuffle(pool);
  const auto dev_count = static_cast<std::size_t>(
      config.dev_fraction * static_cast<double>(pool.size()));
  std::vector<const text::Sentence*> dev(pool.begin(), pool.begin() + dev_count);
  std::vector<const text::Sentence*> train_set(pool.begin() + dev_count, pool.end());

  std::vector<text::Sentence> vocab_source;
  vocab_source.reserve(train_set.size());
  for (const auto* s : train_set) vocab_source.push_back(*s);

  BiLstmCrfTagger model(vocab_source, config);
  Adam adam({config.learning_rate, 0.9, 0.999, 1e-8, config.gradient_clip});
  const auto params = model.parameters();

  auto dev_accuracy = [&] {
    std::size_t correct = 0;
    std::size_t total = 0;
    for (const auto* s : dev) {
      const auto predicted = model.predict(*s);
      for (std::size_t t = 0; t < s->size(); ++t) {
        correct += predicted[t] == s->tags[t];
        ++total;
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(total);
  };

  double best_dev = -1.0;
  std::vector<Matrix> best_values;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(train_set);
    double total_nll = 0.0;
    for (const auto* s : train_set) {
      total_nll += model.train_step(*s);
      adam.step(params);
    }
    const double acc = dev_accuracy();
    if (config.verbose)
      util::log_info("bilstm-crf epoch ", epoch, ": nll ",
                     total_nll / std::max<std::size_t>(1, train_set.size()),
                     ", dev acc ", acc);
    if (acc > best_dev) {
      best_dev = acc;
      best_values.clear();
      for (const Param* p : params) best_values.push_back(p->value);
    }
  }
  if (!best_values.empty())
    for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = best_values[i];
  return model;
}

}  // namespace graphner::neural
