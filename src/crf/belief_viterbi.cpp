#include "src/crf/belief_viterbi.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

namespace graphner::crf {

using text::Tag;

namespace {
constexpr double kEps = 1e-12;
}  // namespace

TagTransitionMatrix transition_ratio_matrix(const TagTransitionMatrix& counts) {
  const std::size_t L = counts.n();
  TagTransitionMatrix out(L);
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total <= 0.0) {
    out.fill(1.0);
    return out;
  }
  std::vector<double> from_marginal(L, 0.0);
  std::vector<double> to_marginal(L, 0.0);
  for (std::size_t a = 0; a < L; ++a) {
    for (std::size_t b = 0; b < L; ++b) {
      from_marginal[a] += counts.at(a, b);
      to_marginal[b] += counts.at(a, b);
    }
  }
  for (std::size_t a = 0; a < L; ++a) {
    for (std::size_t b = 0; b < L; ++b) {
      const double denom = from_marginal[a] * to_marginal[b];
      out.at(a, b) = denom > 0.0 ? counts.at(a, b) * total / denom : 0.0;
    }
  }
  return out;
}

namespace {

/// Shared Viterbi core; `transition_at(i)` yields the matrix for the edge
/// between positions i-1 and i.
///
/// Max-product in the linear domain: scores are products of (floored)
/// beliefs and transition entries, renormalized by the row maximum at every
/// position so no logarithms are needed and products never overflow. A
/// uniform per-row rescale preserves the argmax and the backpointers.
/// Illegal configurations carry an exact score of 0; positive scores are
/// floored well above the denormal range so a long run of low-probability
/// (but legal) positions can never collapse to 0 and be mistaken for an
/// illegal path.
template <typename TransitionAt>
std::vector<Tag> belief_viterbi_impl(std::span<const text::LabelDist> beliefs,
                                     TransitionAt&& transition_at,
                                     const text::LabelSet& labels,
                                     BeliefViterbiScratch& rows) {
  const std::size_t n = beliefs.size();
  const std::size_t L = labels.num_labels();
  std::vector<Tag> tags(n);
  if (n == 0) return tags;
  assert(beliefs[0].size() == L);

  constexpr double kScoreFloor = 1e-280;
  // Every row entry in [0, L) is written before it is read, and rows only
  // grow, so a warm scratch allocates nothing here.
  if (rows.score.size() < n) rows.score.resize(n);
  if (rows.back.size() < n) rows.back.resize(n);
  auto& score = rows.score;
  auto& back = rows.back;

  for (std::size_t t = 0; t < L; ++t) {
    const bool legal_start = labels.is_legal_start(text::tag_from_index(t));
    score[0][t] = legal_start ? std::max(beliefs[0][t], kEps) : 0.0;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const TagTransitionMatrix& transitions = transition_at(i);
    assert(transitions.n() == L);
    double row_max = 0.0;
    for (std::size_t t = 0; t < L; ++t) {
      double best = 0.0;
      std::size_t arg = 0;
      for (std::size_t p = 0; p < L; ++p) {
        if (labels.is_illegal_transition(text::tag_from_index(p),
                                         text::tag_from_index(t)))
          continue;
        const double cand = score[i - 1][p] * std::max(transitions.at(p, t), kEps);
        if (cand > best) {
          best = cand;
          arg = p;
        }
      }
      const double v = best * std::max(beliefs[i][t], kEps);
      score[i][t] = v;
      back[i][t] = static_cast<std::uint8_t>(arg);
      row_max = std::max(row_max, v);
    }
    if (row_max > 0.0) {
      const double inv = 1.0 / row_max;
      for (std::size_t t = 0; t < L; ++t) {
        double& v = score[i][t];
        v *= inv;
        if (v > 0.0 && v < kScoreFloor) v = kScoreFloor;
      }
    }
  }

  std::size_t cur = 0;
  double best = -1.0;
  for (std::size_t t = 0; t < L; ++t) {
    if (score[n - 1][t] > best) {
      best = score[n - 1][t];
      cur = t;
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    tags[i] = text::tag_from_index(cur);
    if (i > 0) cur = back[i][cur];
  }
  return tags;
}

}  // namespace

std::vector<Tag> belief_viterbi(std::span<const text::LabelDist> beliefs,
                                const TagTransitionMatrix& transitions,
                                const text::LabelSet& labels) {
  BeliefViterbiScratch rows;
  return belief_viterbi_impl(
      beliefs,
      [&](std::size_t) -> const TagTransitionMatrix& { return transitions; },
      labels, rows);
}

std::vector<Tag> belief_viterbi(std::span<const text::LabelDist> beliefs,
                                std::span<const TagTransitionMatrix> per_edge_transitions,
                                const text::LabelSet& labels) {
  BeliefViterbiScratch rows;
  return belief_viterbi(beliefs, per_edge_transitions, labels, rows);
}

std::vector<Tag> belief_viterbi(std::span<const text::LabelDist> beliefs,
                                std::span<const TagTransitionMatrix> per_edge_transitions,
                                const text::LabelSet& labels,
                                BeliefViterbiScratch& rows) {
  assert(per_edge_transitions.size() == beliefs.size());
  return belief_viterbi_impl(
      beliefs,
      [&](std::size_t i) -> const TagTransitionMatrix& {
        return per_edge_transitions[i];
      },
      labels, rows);
}

}  // namespace graphner::crf
