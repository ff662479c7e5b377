#include "src/crf/model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/util/math.hpp"

namespace graphner::crf {

using text::kNumTags;
using util::kNegInf;
using util::log_add;

LinearChainCrf::LinearChainCrf(StateSpace space, std::size_t num_features)
    : space_(std::move(space)), num_features_(num_features) {
  const std::size_t total = num_features_ * space_.num_states() +
                            space_.transitions().size() + space_.num_states();
  weights_.assign(total, 0.0);
  wspan_ = weights_;

  const std::size_t S = space_.num_states();
  state_tag_idx_.resize(S);
  for (std::size_t s = 0; s < S; ++s)
    state_tag_idx_[s] = static_cast<std::uint8_t>(
        text::tag_index(space_.tag_of(static_cast<StateId>(s))));
  const auto& transitions = space_.transitions();
  const std::size_t L = space_.num_labels();
  slot_tag_pair_.resize(transitions.size());
  for (std::size_t t = 0; t < transitions.size(); ++t)
    slot_tag_pair_[t] = static_cast<std::uint8_t>(
        text::tag_index(space_.tag_of(transitions[t].from)) * L +
        text::tag_index(space_.tag_of(transitions[t].to)));

  rebuild_weight_caches();
}

void LinearChainCrf::set_weights(std::span<const double> w) {
  assert(w.size() == wspan_.size());
  // A borrowed table is read-only; copying onto it would write through an
  // mmap of the model file. Re-own storage before mutating.
  if (weights_borrowed()) weights_.resize(w.size());
  std::copy(w.begin(), w.end(), weights_.begin());
  wspan_ = weights_;
  rebuild_weight_caches();
}

void LinearChainCrf::set_weights_view(std::span<const double> w) {
  assert(w.size() == num_features_ * space_.num_states() +
                         space_.transitions().size() + space_.num_states());
  weights_.clear();
  weights_.shrink_to_fit();  // the point: no heap copy of the table
  wspan_ = w;
  rebuild_weight_caches();
}

void LinearChainCrf::rebuild_weight_caches() {
  const double* trans = wspan_.data() + transition_base();
  const double* start = wspan_.data() + start_base();
  const std::size_t num_trans = space_.transitions().size();

  exp_trans_slot_.resize(num_trans);
  for (std::size_t t = 0; t < num_trans; ++t)
    exp_trans_slot_[t] = std::exp(trans[t]);

  const auto& in_edges = space_.incoming_edges();
  exp_trans_in_.resize(in_edges.size());
  trans_in_.resize(in_edges.size());
  for (std::size_t e = 0; e < in_edges.size(); ++e) {
    exp_trans_in_[e] = exp_trans_slot_[in_edges[e].slot];
    trans_in_[e] = trans[in_edges[e].slot];
  }
  const auto& out_edges = space_.outgoing_edges();
  exp_trans_out_.resize(out_edges.size());
  for (std::size_t e = 0; e < out_edges.size(); ++e)
    exp_trans_out_[e] = exp_trans_slot_[out_edges[e].slot];

  exp_start_.assign(space_.num_states(), 0.0);
  for (const StateId s : space_.start_states()) exp_start_[s] = std::exp(start[s]);
}

namespace {

// -O2 leaves the emission accumulation scalar, and the build targets baseline
// x86-64, so opt this one hot loop into the vectorizer and emit an AVX2 clone
// picked by ifunc dispatch at load time (plain build everywhere else).
// Skipped under sanitizers: ifunc resolvers run at relocation time, before
// __tsan_init, and an instrumented resolver touches thread state that does
// not exist yet — every binary linking this TU would segfault pre-main.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define GRAPHNER_VECTOR_KERNEL \
  __attribute__((optimize("tree-vectorize"), target_clones("default", "avx2")))
#else
#define GRAPHNER_VECTOR_KERNEL
#endif

/// Sum the active feature-weight rows of one sentence into `out` (n x S).
/// The compile-time state count keeps the accumulator in registers and lets
/// the inner addition unroll; each output row is written exactly once.
template <std::size_t S>
GRAPHNER_VECTOR_KERNEL void accumulate_emission(const EncodedSentence& sentence,
                                                const double* weights,
                                                double* out) {
  const std::size_t n = sentence.size();
  for (std::size_t i = 0; i < n; ++i) {
    double acc[S] = {};
    for (const FeatureIndex::Id f : sentence.features[i]) {
      const double* w = weights + static_cast<std::size_t>(f) * S;
      for (std::size_t s = 0; s < S; ++s) acc[s] += w[s];
    }
    double* row = out + i * S;
    for (std::size_t s = 0; s < S; ++s) row[s] = acc[s];
  }
}

}  // namespace

void LinearChainCrf::emission_scores(const EncodedSentence& sentence,
                                     std::vector<double>& out) const {
  const std::size_t n = sentence.size();
  const std::size_t S = space_.num_states();
  out.resize(n * S);
  switch (S) {
    case 3:  // order-1 state space
      accumulate_emission<3>(sentence, wspan_.data(), out.data());
      return;
    case 9:  // order-2 state space
      accumulate_emission<9>(sentence, wspan_.data(), out.data());
      return;
    default:
      break;
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = out.data() + i * S;
    for (const FeatureIndex::Id f : sentence.features[i]) {
      const double* w = wspan_.data() + static_cast<std::size_t>(f) * S;
      for (std::size_t s = 0; s < S; ++s) row[s] += w[s];
    }
  }
}

void LinearChainCrf::run_forward_backward(const EncodedSentence& sentence,
                                          Scratch& sc) const {
  assert(sentence.size() > 0);
  const std::size_t n = sentence.size();
  const std::size_t S = space_.num_states();
  emission_scores(sentence, sc.emit);

  sc.psi.resize(n * S);
  sc.alpha.resize(n * S);
  sc.beta.resize(n * S);
  sc.scale.resize(n);
  sc.tmp.resize(S);

  // psi[i][s] = exp(emit[i][s] - m_i): bounded in (0, 1], so products never
  // overflow regardless of weight magnitudes; the row maxima m_i join log Z.
  double log_z = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* e = sc.emit.data() + i * S;
    double m = e[0];
    for (std::size_t s = 1; s < S; ++s) m = std::max(m, e[s]);
    double* p = sc.psi.data() + i * S;
    for (std::size_t s = 0; s < S; ++s) p[s] = std::exp(e[s] - m);
    log_z += m;
  }

  const auto& in_off = space_.incoming_offsets();
  const CsrEdge* in_edges = space_.incoming_edges().data();
  const double* exp_in = exp_trans_in_.data();

  // Forward: alpha rows are renormalized to sum to 1; the per-position sums
  // z_i accumulate into log Z and reappear in the pairwise marginals.
  bool ok = true;
  {
    double* a0 = sc.alpha.data();
    const double* p0 = sc.psi.data();
    double z = 0.0;
    for (std::size_t s = 0; s < S; ++s) {
      a0[s] = exp_start_[s] * p0[s];
      z += a0[s];
    }
    sc.scale[0] = z;
    if (z > 0.0 && std::isfinite(z)) {
      const double inv = 1.0 / z;
      for (std::size_t s = 0; s < S; ++s) a0[s] *= inv;
      log_z += std::log(z);
    } else {
      ok = false;
    }
  }
  for (std::size_t i = 1; i < n && ok; ++i) {
    const double* prev = sc.alpha.data() + (i - 1) * S;
    double* cur = sc.alpha.data() + i * S;
    const double* p = sc.psi.data() + i * S;
    double z = 0.0;
    for (std::size_t s = 0; s < S; ++s) {
      double acc = 0.0;
      for (std::uint32_t e = in_off[s]; e < in_off[s + 1]; ++e)
        acc += prev[in_edges[e].state] * exp_in[e];
      const double v = acc * p[s];
      cur[s] = v;
      z += v;
    }
    sc.scale[i] = z;
    if (z > 0.0 && std::isfinite(z)) {
      const double inv = 1.0 / z;
      for (std::size_t s = 0; s < S; ++s) cur[s] *= inv;
      log_z += std::log(z);
    } else {
      ok = false;
    }
  }
  if (!ok) {
    // A position where every reachable state underflowed (or an exp()
    // overflow from extreme weights): redo this sentence in log space.
    run_forward_backward_logspace(sentence, sc);
    return;
  }
  sc.log_z = log_z;

  // Backward, scaled by the forward constants: beta_hat[i] = B_i / prod_{j>i}
  // z_j, so node marginals are alpha_hat * beta_hat with no further terms.
  const auto& out_off = space_.outgoing_offsets();
  const CsrEdge* out_edges = space_.outgoing_edges().data();
  const double* exp_out = exp_trans_out_.data();
  double* tmp = sc.tmp.data();
  for (std::size_t s = 0; s < S; ++s) sc.beta[(n - 1) * S + s] = 1.0;
  for (std::size_t i = n - 1; i-- > 0;) {
    const double* next_b = sc.beta.data() + (i + 1) * S;
    const double* next_p = sc.psi.data() + (i + 1) * S;
    double* cur = sc.beta.data() + i * S;
    const double invz = 1.0 / sc.scale[i + 1];
    for (std::size_t s = 0; s < S; ++s) tmp[s] = next_p[s] * next_b[s] * invz;
    for (std::size_t s = 0; s < S; ++s) {
      double acc = 0.0;
      for (std::uint32_t e = out_off[s]; e < out_off[s + 1]; ++e)
        acc += exp_out[e] * tmp[out_edges[e].state];
      cur[s] = acc;
    }
  }

  // Node and edge marginals, the only lattice outputs consumers read.
  sc.node.resize(n * S);
  for (std::size_t i = 0; i < n * S; ++i) sc.node[i] = sc.alpha[i] * sc.beta[i];

  const auto& transitions = space_.transitions();
  const std::size_t num_trans = transitions.size();
  sc.pair.resize(n * num_trans);
  for (std::size_t i = 1; i < n; ++i) {
    const double* pa = sc.alpha.data() + (i - 1) * S;
    const double* pb = sc.beta.data() + i * S;
    const double* pp = sc.psi.data() + i * S;
    const double invz = 1.0 / sc.scale[i];
    double* pw = sc.pair.data() + i * num_trans;
    for (std::size_t s = 0; s < S; ++s) tmp[s] = pp[s] * pb[s] * invz;
    for (std::size_t t = 0; t < num_trans; ++t)
      pw[t] = pa[transitions[t].from] * exp_trans_slot_[t] * tmp[transitions[t].to];
  }
}

void LinearChainCrf::run_forward_backward_logspace(const EncodedSentence& sentence,
                                                   Scratch& sc) const {
  const std::size_t n = sentence.size();
  const std::size_t S = space_.num_states();
  // sc.emit is already filled by the caller. The log lattice is rare enough
  // that its buffers are allocated locally instead of widening the Scratch.
  std::vector<double> la(n * S, kNegInf);
  std::vector<double> lb(n * S, kNegInf);

  const double* trans = wspan_.data() + transition_base();
  const double* start = wspan_.data() + start_base();
  const auto& in_off = space_.incoming_offsets();
  const CsrEdge* in_edges = space_.incoming_edges().data();
  const double* trans_in = trans_in_.data();

  for (const StateId s : space_.start_states())
    la[s] = start[s] + sc.emit[s];
  for (std::size_t i = 1; i < n; ++i) {
    const double* prev = la.data() + (i - 1) * S;
    double* cur = la.data() + i * S;
    for (std::size_t s = 0; s < S; ++s) {
      double acc = kNegInf;
      for (std::uint32_t e = in_off[s]; e < in_off[s + 1]; ++e)
        acc = log_add(acc, prev[in_edges[e].state] + trans_in[e]);
      if (acc != kNegInf) cur[s] = acc + sc.emit[i * S + s];
    }
  }
  sc.log_z = util::log_sum_exp(
      std::span<const double>(la.data() + (n - 1) * S, S));

  const auto& out_off = space_.outgoing_offsets();
  const CsrEdge* out_edges = space_.outgoing_edges().data();
  for (std::size_t s = 0; s < S; ++s) lb[(n - 1) * S + s] = 0.0;
  for (std::size_t i = n - 1; i-- > 0;) {
    const double* next = lb.data() + (i + 1) * S;
    double* cur = lb.data() + i * S;
    for (std::size_t s = 0; s < S; ++s) {
      double acc = kNegInf;
      for (std::uint32_t e = out_off[s]; e < out_off[s + 1]; ++e) {
        const StateId to = out_edges[e].state;
        acc = log_add(acc, trans[out_edges[e].slot] + sc.emit[(i + 1) * S + to] +
                               next[to]);
      }
      cur[s] = acc;
    }
  }

  // Marginals straight from the log-domain lattice. Each sum la + lb - logZ
  // (and likewise the edge sums below) is a log-probability, so the exp() is
  // always in [0, 1] even when the individual forward/backward masses span
  // more than the double range — which is exactly the regime that forced
  // this fallback.
  sc.node.resize(n * S);
  for (std::size_t i = 0; i < n * S; ++i)
    sc.node[i] = std::exp(la[i] + lb[i] - sc.log_z);

  const auto& transitions = space_.transitions();
  const std::size_t num_trans = transitions.size();
  sc.pair.resize(n * num_trans);
  for (std::size_t i = 1; i < n; ++i) {
    const double* pa = la.data() + (i - 1) * S;
    const double* pb = lb.data() + i * S;
    const double* e = sc.emit.data() + i * S;
    double* pw = sc.pair.data() + i * num_trans;
    for (std::size_t t = 0; t < num_trans; ++t)
      pw[t] = std::exp(pa[transitions[t].from] + trans[t] +
                       e[transitions[t].to] + pb[transitions[t].to] - sc.log_z);
  }
}

double LinearChainCrf::log_likelihood(const EncodedSentence& sentence,
                                      std::span<double> grad,
                                      Scratch& sc) const {
  assert(sentence.labelled());
  const std::size_t n = sentence.size();
  const std::size_t S = space_.num_states();

  run_forward_backward(sentence, sc);

  // Gold-path score.
  const double* trans = wspan_.data() + transition_base();
  const double* start = wspan_.data() + start_base();
  double gold = start[sentence.states[0]] + sc.emit[sentence.states[0]];
  for (std::size_t i = 1; i < n; ++i) {
    gold += trans[space_.transition_slot(sentence.states[i - 1], sentence.states[i])];
    gold += sc.emit[i * S + sentence.states[i]];
  }
  const double log_likelihood = gold - sc.log_z;
  if (grad.empty()) return log_likelihood;
  assert(grad.size() == wspan_.size());

  // Observed counts.
  for (std::size_t i = 0; i < n; ++i) {
    const StateId s = sentence.states[i];
    for (const FeatureIndex::Id f : sentence.features[i])
      grad[emission_slot(f, s)] += 1.0;
  }
  grad[start_base() + sentence.states[0]] += 1.0;
  for (std::size_t i = 1; i < n; ++i)
    grad[transition_base() +
         space_.transition_slot(sentence.states[i - 1], sentence.states[i])] += 1.0;

  // Expected counts: node marginals.
  for (std::size_t i = 0; i < n; ++i) {
    const double* m = sc.node.data() + i * S;
    for (const FeatureIndex::Id f : sentence.features[i]) {
      double* g = grad.data() + static_cast<std::size_t>(f) * S;
      for (std::size_t s = 0; s < S; ++s) g[s] -= m[s];
    }
  }
  for (std::size_t s = 0; s < S; ++s) grad[start_base() + s] -= sc.node[s];

  // Expected counts: edge marginals.
  const std::size_t num_trans = space_.transitions().size();
  double* gt = grad.data() + transition_base();
  for (std::size_t i = 1; i < n; ++i) {
    const double* pw = sc.pair.data() + i * num_trans;
    for (std::size_t t = 0; t < num_trans; ++t) gt[t] -= pw[t];
  }
  return log_likelihood;
}

double LinearChainCrf::log_likelihood(const EncodedSentence& sentence,
                                      std::span<double> grad) const {
  Scratch scratch;
  return log_likelihood(sentence, grad, scratch);
}

double LinearChainCrf::posteriors(const EncodedSentence& sentence, Scratch& sc,
                                  std::span<text::LabelDist> tag_marginals,
                                  std::span<text::LabelMatrix> pairwise_marginals) const {
  const std::size_t n = sentence.size();
  const std::size_t S = space_.num_states();
  assert(tag_marginals.size() >= n && pairwise_marginals.size() >= n);
  run_forward_backward(sentence, sc);

  const std::size_t L = space_.num_labels();
  for (std::size_t i = 0; i < n; ++i) {
    auto& row = tag_marginals[i];
    row.resize(L);
    row.fill(0.0);
    const double* m = sc.node.data() + i * S;
    for (std::size_t s = 0; s < S; ++s) row[state_tag_idx_[s]] += m[s];
    util::normalize_inplace(row);  // absorb rounding drift
  }

  // Pairwise tag marginals (entry 0 unused).
  const std::size_t num_trans = space_.transitions().size();
  for (std::size_t i = 1; i < n; ++i) {
    auto& cell = pairwise_marginals[i];
    if (cell.n() != L) cell = text::LabelMatrix(L);
    cell.fill(0.0);
    const double* pw = sc.pair.data() + i * num_trans;
    for (std::size_t t = 0; t < num_trans; ++t) cell[slot_tag_pair_[t]] += pw[t];
    util::normalize_inplace(cell);
  }
  return sc.log_z;
}

SentencePosteriors LinearChainCrf::posteriors(const EncodedSentence& sentence,
                                              Scratch& sc) const {
  const std::size_t n = sentence.size();
  const std::size_t L = space_.num_labels();
  SentencePosteriors out;
  out.tag_marginals.assign(n, text::LabelDist(L));
  out.pairwise_marginals.assign(n, text::LabelMatrix(L));
  out.log_z = posteriors(sentence, sc, out.tag_marginals, out.pairwise_marginals);
  return out;
}

SentencePosteriors LinearChainCrf::posteriors(const EncodedSentence& sentence) const {
  Scratch scratch;
  return posteriors(sentence, scratch);
}

void LinearChainCrf::accumulate_tag_transition_expectations(
    const EncodedSentence& sentence, text::LabelMatrix& counts,
    Scratch& sc) const {
  assert(counts.n() == space_.num_labels());
  const std::size_t n = sentence.size();
  if (n < 2) return;

  run_forward_backward(sentence, sc);

  const std::size_t num_trans = space_.transitions().size();
  for (std::size_t i = 1; i < n; ++i) {
    const double* pw = sc.pair.data() + i * num_trans;
    for (std::size_t t = 0; t < num_trans; ++t)
      counts[slot_tag_pair_[t]] += pw[t];
  }
}

void LinearChainCrf::accumulate_tag_transition_expectations(
    const EncodedSentence& sentence, text::LabelMatrix& counts) const {
  Scratch scratch;
  accumulate_tag_transition_expectations(sentence, counts, scratch);
}

std::vector<text::Tag> LinearChainCrf::viterbi(const EncodedSentence& sentence,
                                               Scratch& sc) const {
  assert(sentence.size() > 0);
  const std::size_t n = sentence.size();
  const std::size_t S = space_.num_states();
  emission_scores(sentence, sc.emit);

  const double* start = wspan_.data() + start_base();

  sc.vscore.assign(n * S, kNegInf);
  sc.vback.assign(n * S, 0);
  double* score = sc.vscore.data();
  StateId* back = sc.vback.data();

  for (const StateId s : space_.start_states())
    score[s] = start[s] + sc.emit[s];

  const auto& in_off = space_.incoming_offsets();
  const CsrEdge* in_edges = space_.incoming_edges().data();
  const double* trans_in = trans_in_.data();
  for (std::size_t i = 1; i < n; ++i) {
    const double* prev = score + (i - 1) * S;
    double* cur = score + i * S;
    const double* e = sc.emit.data() + i * S;
    StateId* b = back + i * S;
    for (std::size_t s = 0; s < S; ++s) {
      double best = kNegInf;
      StateId arg = 0;
      for (std::uint32_t edge = in_off[s]; edge < in_off[s + 1]; ++edge) {
        const double cand = prev[in_edges[edge].state] + trans_in[edge];
        if (cand > best) {
          best = cand;
          arg = in_edges[edge].state;
        }
      }
      if (best != kNegInf) {
        cur[s] = best + e[s];
        b[s] = arg;
      }
    }
  }

  StateId cur = 0;
  double best = kNegInf;
  for (std::size_t s = 0; s < S; ++s) {
    if (score[(n - 1) * S + s] > best) {
      best = score[(n - 1) * S + s];
      cur = static_cast<StateId>(s);
    }
  }
  std::vector<text::Tag> tags(n);
  for (std::size_t i = n; i-- > 0;) {
    tags[i] = space_.tag_of(cur);
    cur = back[i * S + cur];
  }
  return tags;
}

std::vector<text::Tag> LinearChainCrf::viterbi(const EncodedSentence& sentence) const {
  Scratch scratch;
  return viterbi(sentence, scratch);
}

}  // namespace graphner::crf
