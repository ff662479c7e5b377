// Tag-level Viterbi over externally supplied node beliefs.
//
// Algorithm 1, line 9: after GraphNER mixes CRF posteriors with propagated
// graph distributions, the final decode runs Viterbi over those combined
// per-token tag beliefs and the CRF's tag-transition probabilities.
//
// All entry points are generic over the model's LabelSet: beliefs carry one
// column per label, matrices are L x L, and the BIO legality constraint is
// taken from the set (no I_t after anything but B_t/I_t, no initial I). The
// defaulted `labels` parameter is the legacy single-type {B, I, O} set.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/text/label_set.hpp"
#include "src/text/tag.hpp"

namespace graphner::crf {

/// Row-major L x L matrix of transition probabilities p(next | prev);
/// rows need not be perfectly normalized.
using TagTransitionMatrix = text::LabelMatrix;

/// Reusable score/backpointer rows of the in-place belief_viterbi. Rows
/// grow to the longest sentence seen and are then reused without
/// allocation.
struct BeliefViterbiScratch {
  std::vector<text::LabelDist> score;
  std::vector<std::array<std::uint8_t, text::kMaxLabels>> back;
};

/// Decode argmax_t sum_i log(beliefs[i][t_i]) + sum_i log(T[t_{i-1}][t_i])
/// with the BIO constraint of `labels` enforced.
/// Zero beliefs/transitions are floored at a tiny epsilon.
[[nodiscard]] std::vector<text::Tag> belief_viterbi(
    std::span<const text::LabelDist> beliefs,
    const TagTransitionMatrix& transitions,
    const text::LabelSet& labels = text::LabelSet::single());

/// Position-specific variant: transitions[i] applies to the edge between
/// positions i-1 and i (entry 0 unused; sizes must match beliefs). Used
/// with per-edge pairwise/marginal ratios from the CRF, which makes the
/// decode the exact tree reparameterization of the CRF distribution at
/// order 1 — a corpus-aggregated matrix misprices rare transitions (e.g.
/// rewards B -> I between two adjacent single-token mentions).
[[nodiscard]] std::vector<text::Tag> belief_viterbi(
    std::span<const text::LabelDist> beliefs,
    std::span<const TagTransitionMatrix> per_edge_transitions,
    const text::LabelSet& labels = text::LabelSet::single());

/// The per-edge decode on caller-owned rows: the only allocation is the
/// returned tag vector.
[[nodiscard]] std::vector<text::Tag> belief_viterbi(
    std::span<const text::LabelDist> beliefs,
    std::span<const TagTransitionMatrix> per_edge_transitions,
    const text::LabelSet& labels, BeliefViterbiScratch& scratch);

/// Turn expected tag-bigram counts into the pairwise/marginal ratio
/// R[a][b] = p(a,b) / (p(a) p(b)). For a chain-structured distribution the
/// joint factorizes as prod_i p(t_i) * prod_i R[t_{i-1}][t_i], so Viterbi
/// over node *marginals* with R as the transition matrix recovers the MAP
/// sequence without double-counting transition mass (using p(b|a) here
/// would re-penalize rare tags that the marginals already account for).
[[nodiscard]] TagTransitionMatrix transition_ratio_matrix(
    const TagTransitionMatrix& counts);

}  // namespace graphner::crf
