// Golden equivalence: the scaled linear-domain CRF kernels against a
// straightforward log-space reference implementation.
//
// The reference below shares no inference code with LinearChainCrf — it
// rebuilds emissions from the raw weight vector and runs textbook log-space
// forward-backward / Viterbi over space.transitions(). Every public output
// (log Z, tag marginals, pairwise marginals, Viterbi paths, log-likelihood
// and its full gradient) must match to 1e-8 on both CRF orders, including
// near-degenerate large-magnitude weights that would underflow an unscaled
// linear-domain lattice.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/crf/model.hpp"
#include "src/crf/state_space.hpp"
#include "src/text/tag.hpp"
#include "src/util/math.hpp"
#include "src/util/rng.hpp"

namespace graphner::crf {
namespace {

using text::kNumTags;
using text::Tag;
using util::kNegInf;
using util::log_add;

EncodedSentence random_sentence(std::size_t length, std::size_t num_features,
                                util::Rng& rng) {
  EncodedSentence s;
  s.features.resize(length);
  for (auto& feats : s.features) {
    for (int j = 0; j < 12; ++j)
      feats.push_back(static_cast<FeatureIndex::Id>(rng.below(num_features)));
    std::sort(feats.begin(), feats.end());
    feats.erase(std::unique(feats.begin(), feats.end()), feats.end());
  }
  return s;
}

/// Random gold tags honouring the BIO constraints the state spaces encode.
std::vector<Tag> random_legal_tags(std::size_t length, util::Rng& rng) {
  std::vector<Tag> tags(length);
  Tag prev = Tag::kO;
  for (std::size_t i = 0; i < length; ++i) {
    Tag t = text::kAllTags[rng.below(kNumTags)];
    const bool illegal_i = t == Tag::kI && (i == 0 || prev == Tag::kO);
    if (illegal_i) t = rng.flip(0.5) ? Tag::kB : Tag::kO;
    tags[i] = t;
    prev = t;
  }
  return tags;
}

/// Textbook log-space inference over the same parameter layout as
/// LinearChainCrf: [emission | transition | start].
struct LogSpaceReference {
  const StateSpace& space;
  std::span<const double> w;
  std::size_t num_features;

  [[nodiscard]] std::size_t S() const { return space.num_states(); }
  [[nodiscard]] double emit(const EncodedSentence& s, std::size_t i,
                            StateId state) const {
    double sum = 0.0;
    for (const FeatureIndex::Id f : s.features[i])
      sum += w[static_cast<std::size_t>(f) * S() + state];
    return sum;
  }
  [[nodiscard]] double trans(std::size_t slot) const {
    return w[num_features * S() + slot];
  }
  [[nodiscard]] double start(StateId s) const {
    return w[num_features * S() + space.transitions().size() + s];
  }

  struct Lattice {
    std::vector<std::vector<double>> la;  ///< log forward
    std::vector<std::vector<double>> lb;  ///< log backward
    double log_z = 0.0;
  };

  [[nodiscard]] Lattice forward_backward(const EncodedSentence& s) const {
    const std::size_t n = s.size();
    Lattice lat;
    lat.la.assign(n, std::vector<double>(S(), kNegInf));
    lat.lb.assign(n, std::vector<double>(S(), kNegInf));
    for (const StateId st : space.start_states())
      lat.la[0][st] = start(st) + emit(s, 0, st);
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t t = 0; t < space.transitions().size(); ++t) {
        const auto [from, to] = space.transitions()[t];
        lat.la[i][to] = log_add(lat.la[i][to],
                                lat.la[i - 1][from] + trans(t) + emit(s, i, to));
      }
    for (std::size_t st = 0; st < S(); ++st) lat.lb[n - 1][st] = 0.0;
    for (std::size_t i = n - 1; i-- > 0;)
      for (std::size_t t = 0; t < space.transitions().size(); ++t) {
        const auto [from, to] = space.transitions()[t];
        lat.lb[i][from] = log_add(
            lat.lb[i][from], trans(t) + emit(s, i + 1, to) + lat.lb[i + 1][to]);
      }
    lat.log_z = kNegInf;
    for (std::size_t st = 0; st < S(); ++st)
      lat.log_z = log_add(lat.log_z, lat.la[n - 1][st]);
    return lat;
  }

  [[nodiscard]] SentencePosteriors posteriors(const EncodedSentence& s) const {
    const std::size_t n = s.size();
    const Lattice lat = forward_backward(s);
    SentencePosteriors out;
    out.log_z = lat.log_z;
    out.tag_marginals.assign(n, {});
    out.pairwise_marginals.assign(n, {});
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t st = 0; st < S(); ++st)
        out.tag_marginals[i][text::tag_index(space.tag_of(
            static_cast<StateId>(st)))] +=
            std::exp(lat.la[i][st] + lat.lb[i][st] - lat.log_z);
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t t = 0; t < space.transitions().size(); ++t) {
        const auto [from, to] = space.transitions()[t];
        const std::size_t pair = text::tag_index(space.tag_of(from)) * kNumTags +
                                 text::tag_index(space.tag_of(to));
        out.pairwise_marginals[i][pair] +=
            std::exp(lat.la[i - 1][from] + trans(t) + emit(s, i, to) +
                     lat.lb[i][to] - lat.log_z);
      }
    return out;
  }

  [[nodiscard]] double log_likelihood(const EncodedSentence& s,
                                      std::span<double> grad) const {
    const std::size_t n = s.size();
    const Lattice lat = forward_backward(s);

    double gold = start(s.states[0]) + emit(s, 0, s.states[0]);
    for (std::size_t i = 1; i < n; ++i)
      gold += trans(space.transition_slot(s.states[i - 1], s.states[i])) +
              emit(s, i, s.states[i]);

    if (!grad.empty()) {
      const std::size_t trans_base = num_features * S();
      const std::size_t start_base = trans_base + space.transitions().size();
      // Emission: empirical minus expected per active feature.
      for (std::size_t i = 0; i < n; ++i) {
        for (const FeatureIndex::Id f : s.features[i]) {
          const std::size_t row = static_cast<std::size_t>(f) * S();
          grad[row + s.states[i]] += 1.0;
          for (std::size_t st = 0; st < S(); ++st)
            grad[row + st] -= std::exp(lat.la[i][st] + lat.lb[i][st] - lat.log_z);
        }
      }
      // Transitions.
      for (std::size_t i = 1; i < n; ++i) {
        grad[trans_base + space.transition_slot(s.states[i - 1], s.states[i])] += 1.0;
        for (std::size_t t = 0; t < space.transitions().size(); ++t) {
          const auto [from, to] = space.transitions()[t];
          grad[trans_base + t] -= std::exp(lat.la[i - 1][from] + trans(t) +
                                           emit(s, i, to) + lat.lb[i][to] -
                                           lat.log_z);
        }
      }
      // Start.
      grad[start_base + s.states[0]] += 1.0;
      for (const StateId st : space.start_states())
        grad[start_base + st] -= std::exp(lat.la[0][st] + lat.lb[0][st] - lat.log_z);
    }
    return gold - lat.log_z;
  }

  [[nodiscard]] std::vector<Tag> viterbi(const EncodedSentence& s) const {
    const std::size_t n = s.size();
    std::vector<std::vector<double>> score(n, std::vector<double>(S(), kNegInf));
    std::vector<std::vector<StateId>> back(n, std::vector<StateId>(S(), 0));
    for (const StateId st : space.start_states())
      score[0][st] = start(st) + emit(s, 0, st);
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t t = 0; t < space.transitions().size(); ++t) {
        const auto [from, to] = space.transitions()[t];
        const double cand = score[i - 1][from] + trans(t) + emit(s, i, to);
        if (cand > score[i][to]) {
          score[i][to] = cand;
          back[i][to] = from;
        }
      }
    StateId cur = 0;
    double best = kNegInf;
    for (std::size_t st = 0; st < S(); ++st)
      if (score[n - 1][st] > best) {
        best = score[n - 1][st];
        cur = static_cast<StateId>(st);
      }
    std::vector<Tag> tags(n);
    for (std::size_t i = n; i-- > 0;) {
      tags[i] = space.tag_of(cur);
      if (i > 0) cur = back[i][cur];
    }
    return tags;
  }
};

constexpr double kTol = 1e-8;

/// Relative-when-large tolerance for log-domain scalars.
void expect_close(double actual, double expected) {
  EXPECT_NEAR(actual, expected, kTol * std::max(1.0, std::abs(expected)));
}

struct Case {
  int order;
  double weight_scale;  ///< stddev for moderate, half-range for degenerate
  bool degenerate;      ///< large-magnitude +-scale weights
  std::uint64_t seed;
};

/// Prints a Case as "order1_moderate_seed11". CMake's gtest_discover_tests
/// puts the printed parameter in place of the instantiation index, so this
/// is the test name ctest lists; without it GoogleTest would dump the
/// struct's bytes, padding included.
void PrintTo(const Case& c, std::ostream* out) {
  *out << "order" << c.order << (c.degenerate ? "_degenerate" : "_moderate")
       << "_seed" << c.seed;
}

class ScaledVsLogSpace : public ::testing::TestWithParam<Case> {};

TEST_P(ScaledVsLogSpace, AllOutputsMatch) {
  const Case c = GetParam();
  util::Rng rng(c.seed);
  const auto space = c.order == 2 ? StateSpace::order2() : StateSpace::order1();
  constexpr std::size_t kFeatures = 300;

  LinearChainCrf model(space, kFeatures);
  std::vector<double> w(model.num_parameters());
  for (auto& x : w)
    // Degenerate: weights near +-scale, so emissions reach hundreds in
    // magnitude and an unscaled linear-domain lattice would under/overflow.
    x = c.degenerate ? (rng.flip(0.5) ? 1.0 : -1.0) * c.weight_scale +
                           rng.normal(0.0, 0.1)
                     : rng.normal(0.0, c.weight_scale);
  model.set_weights(w);
  const LogSpaceReference ref{model.space(), model.weights(), kFeatures};

  LinearChainCrf::Scratch scratch;
  for (const std::size_t length : {1UL, 2UL, 40UL, 60UL}) {
    SCOPED_TRACE("length " + std::to_string(length));
    auto sentence = random_sentence(length, kFeatures, rng);
    sentence.states = space.encode(random_legal_tags(length, rng));

    // Posteriors: log Z, tag marginals, pairwise marginals.
    const SentencePosteriors fast = model.posteriors(sentence, scratch);
    const SentencePosteriors gold = ref.posteriors(sentence);
    expect_close(fast.log_z, gold.log_z);
    ASSERT_EQ(fast.tag_marginals.size(), length);
    ASSERT_EQ(fast.pairwise_marginals.size(), length);
    for (std::size_t i = 0; i < length; ++i)
      for (std::size_t t = 0; t < kNumTags; ++t)
        EXPECT_NEAR(fast.tag_marginals[i][t], gold.tag_marginals[i][t], kTol);
    for (std::size_t i = 1; i < length; ++i)
      for (std::size_t p = 0; p < kNumTags * kNumTags; ++p)
        EXPECT_NEAR(fast.pairwise_marginals[i][p], gold.pairwise_marginals[i][p],
                    kTol);

    // Log-likelihood value and full gradient.
    std::vector<double> grad(model.num_parameters(), 0.0);
    std::vector<double> grad_ref(model.num_parameters(), 0.0);
    const double ll = model.log_likelihood(sentence, grad, scratch);
    const double ll_ref = ref.log_likelihood(sentence, grad_ref);
    expect_close(ll, ll_ref);
    for (std::size_t j = 0; j < grad.size(); ++j)
      ASSERT_NEAR(grad[j], grad_ref[j], kTol) << "gradient entry " << j;

    // Viterbi decode.
    EXPECT_EQ(model.viterbi(sentence, scratch), ref.viterbi(sentence));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, ScaledVsLogSpace,
    ::testing::Values(Case{1, 0.5, false, 11}, Case{2, 0.5, false, 12},
                      Case{1, 25.0, true, 13}, Case{2, 25.0, true, 14},
                      Case{1, 0.05, false, 15}, Case{2, 1.5, false, 16}));

TEST(ScaledFallback, DegenerateScaleMatchesLogSpace) {
  // Adversarial construction that drives a scaling constant to exactly 0:
  // position 4's emissions put all mass on O, position 5's on I, but O -> I
  // is illegal — every legal predecessor of position 5's dominant state
  // carries forward mass that underflowed to 0.0 in the scaled lattice, so
  // the fast path must detect the degenerate z and fall back to log space.
  for (const auto& space : {StateSpace::order1(), StateSpace::order2()}) {
    SCOPED_TRACE("order " + std::to_string(space.order()));
    const std::size_t n = 8;
    constexpr std::size_t kFeatures = 16;
    LinearChainCrf model(space, kFeatures);
    std::vector<double> w(model.num_parameters(), 0.0);
    for (StateId s = 0; s < space.num_states(); ++s) {
      if (space.tag_of(s) == Tag::kO) w[model.emission_slot(0, s)] = 800.0;
      if (space.tag_of(s) == Tag::kI) w[model.emission_slot(1, s)] = 800.0;
    }
    model.set_weights(w);
    const LogSpaceReference ref{model.space(), model.weights(), kFeatures};

    EncodedSentence sentence;
    sentence.features.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      sentence.features[i] = {static_cast<FeatureIndex::Id>(i + 2)};
    sentence.features[4] = {0};  // forces tag O
    sentence.features[5] = {1};  // forces tag I, unreachable from O
    util::Rng rng(21);
    sentence.states = space.encode(random_legal_tags(n, rng));

    LinearChainCrf::Scratch scratch;
    const SentencePosteriors fast = model.posteriors(sentence, scratch);
    const SentencePosteriors gold = ref.posteriors(sentence);
    ASSERT_TRUE(std::isfinite(fast.log_z));
    expect_close(fast.log_z, gold.log_z);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t t = 0; t < kNumTags; ++t)
        EXPECT_NEAR(fast.tag_marginals[i][t], gold.tag_marginals[i][t], kTol);
    for (std::size_t i = 1; i < n; ++i)
      for (std::size_t p = 0; p < kNumTags * kNumTags; ++p)
        EXPECT_NEAR(fast.pairwise_marginals[i][p], gold.pairwise_marginals[i][p],
                    kTol);

    std::vector<double> grad(model.num_parameters(), 0.0);
    std::vector<double> grad_ref(model.num_parameters(), 0.0);
    const double ll = model.log_likelihood(sentence, grad, scratch);
    const double ll_ref = ref.log_likelihood(sentence, grad_ref);
    expect_close(ll, ll_ref);
    for (std::size_t j = 0; j < grad.size(); ++j)
      ASSERT_NEAR(grad[j], grad_ref[j], kTol) << "gradient entry " << j;
    EXPECT_EQ(model.viterbi(sentence, scratch), ref.viterbi(sentence));
  }
}

TEST(ScaledScratch, ReuseAcrossLengthsMatchesFresh) {
  util::Rng rng(7);
  const auto space = StateSpace::order2();
  constexpr std::size_t kFeatures = 200;
  LinearChainCrf model(space, kFeatures);
  std::vector<double> w(model.num_parameters());
  for (auto& x : w) x = rng.normal(0.0, 0.4);
  model.set_weights(w);

  // One warm scratch across shrinking/growing lengths must agree exactly
  // with a fresh scratch per sentence (stale tail data never leaks in).
  LinearChainCrf::Scratch warm;
  for (const std::size_t length : {50UL, 3UL, 27UL, 1UL, 64UL, 2UL}) {
    SCOPED_TRACE("length " + std::to_string(length));
    auto sentence = random_sentence(length, kFeatures, rng);
    sentence.states = space.encode(random_legal_tags(length, rng));

    LinearChainCrf::Scratch fresh;
    const SentencePosteriors a = model.posteriors(sentence, warm);
    const SentencePosteriors b = model.posteriors(sentence, fresh);
    EXPECT_DOUBLE_EQ(a.log_z, b.log_z);
    for (std::size_t i = 0; i < length; ++i)
      for (std::size_t t = 0; t < kNumTags; ++t)
        EXPECT_DOUBLE_EQ(a.tag_marginals[i][t], b.tag_marginals[i][t]);

    std::vector<double> ga(model.num_parameters(), 0.0);
    std::vector<double> gb(model.num_parameters(), 0.0);
    EXPECT_DOUBLE_EQ(model.log_likelihood(sentence, ga, warm),
                     model.log_likelihood(sentence, gb, fresh));
    EXPECT_EQ(ga, gb);
    EXPECT_EQ(model.viterbi(sentence, warm), model.viterbi(sentence, fresh));
  }
}

}  // namespace
}  // namespace graphner::crf
