// Linear-chain CRF: potentials, forward-backward, marginals, Viterbi.
//
// Parameters:
//   * emission weights  — one per (feature id, state): w_emit[f * S + s]
//   * transition weights — one per legal (from, to) pair
//   * start weights      — one per legal start state
//
// Forward-backward runs in the scaled linear domain (per-position scaling
// constants, CRFsuite-style): emission scores are exponentiated once per
// position after subtracting the row maximum, transition/start weights are
// exponentiated once per set_weights(), and the O(n * |transitions|) inner
// loops are plain multiply-adds over the StateSpace CSR tables. If a scaling
// constant ever degenerates (all reachable states underflow at a position),
// the affected sentence transparently falls back to the log-space
// recurrences, so results match log-space inference to rounding error.
// Viterbi is max-sum and stays in the log domain.
//
// All per-sentence buffers live in a caller-supplied Scratch so hot loops
// (L-BFGS objective evaluations, corpus-wide posterior extraction) perform
// zero per-sentence heap allocation once the scratch is warm.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/crf/belief_viterbi.hpp"
#include "src/crf/dataset.hpp"
#include "src/crf/state_space.hpp"
#include "src/text/tag.hpp"

namespace graphner::crf {

/// Per-sentence inference outputs consumed by GraphNER (Algorithm 1 line 5).
struct SentencePosteriors {
  /// posterior[i][t] = p(label at i == t | x); rows sum to 1 (one column
  /// per label of the model's LabelSet — 3 for the legacy B/I/O set).
  std::vector<text::LabelDist> tag_marginals;
  /// pairwise[i][a * L + b] = p(label_{i-1} = a, label_i = b | x) for
  /// i >= 1 (entry 0 is unused). These are the position-specific
  /// "transition probabilities" GraphNER's final Viterbi consumes.
  std::vector<text::LabelMatrix> pairwise_marginals;
  double log_z = 0.0;
};

class LinearChainCrf {
 public:
  /// Reusable per-worker lattice buffers. Treat as opaque: default-construct
  /// one per worker thread, pass it to the inference entry points, and reuse
  /// it across sentences of any length — buffers grow to the largest
  /// sentence seen and are then recycled without further allocation.
  struct Scratch {
    std::vector<double> emit;   ///< n x S log-domain emission scores
    std::vector<double> psi;    ///< n x S exp(emit - row max)
    std::vector<double> alpha;  ///< n x S scaled forward (rows sum to 1)
    std::vector<double> beta;   ///< n x S scaled backward
    std::vector<double> scale;  ///< n per-position scale sums z_i
    std::vector<double> node;   ///< n x S node marginals p(state at i)
    std::vector<double> pair;   ///< n x T edge marginals, row 0 unused
    std::vector<double> tmp;    ///< S inner-loop staging
    std::vector<double> vscore; ///< n x S Viterbi scores (log domain)
    std::vector<StateId> vback; ///< n x S Viterbi backpointers
    double log_z = 0.0;
    // Rows of the blended decode (GraphNerModel::decode_one_blended): tag
    // and pairwise posteriors, mixed beliefs, per-edge transition ratios
    // and the belief-Viterbi rows. Grow-only, like every buffer above.
    std::vector<text::LabelDist> marginals;
    std::vector<text::LabelMatrix> pairwise;
    std::vector<text::LabelDist> beliefs;
    std::vector<text::LabelMatrix> edge_ratios;
    BeliefViterbiScratch belief_rows;
  };

  LinearChainCrf(StateSpace space, std::size_t num_features);

  [[nodiscard]] const StateSpace& space() const noexcept { return space_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return num_features_; }
  [[nodiscard]] std::size_t num_parameters() const noexcept { return wspan_.size(); }

  [[nodiscard]] std::span<const double> weights() const noexcept { return wspan_; }
  /// Replace all weights (copied into owned storage); also refreshes the
  /// cached exponentiated transition/start tables. Together with
  /// set_weights_view, the only supported ways to mutate weights.
  void set_weights(std::span<const double> w);
  /// Borrow the weight table from caller-owned storage — typically a
  /// read-only mmap of a model file — instead of copying it onto the heap:
  /// every replica of a model then shares one page-cache copy of the
  /// (dominant) emission table. The caller guarantees `w` outlives the CRF
  /// (GraphNerModel keeps the mapping alive). Derived caches (exponentiated
  /// transitions) are rebuilt into owned storage as usual.
  void set_weights_view(std::span<const double> w);
  /// True when the weight table is a borrowed view (set_weights_view)
  /// rather than heap storage.
  [[nodiscard]] bool weights_borrowed() const noexcept {
    return wspan_.data() != weights_.data();
  }

  /// Emission lattice: out[i * S + s] = sum of active feature weights.
  void emission_scores(const EncodedSentence& sentence,
                       std::vector<double>& out) const;
  /// Conditional log-likelihood of the gold states; if `grad` is non-null,
  /// accumulates d(logL)/dw into it (same layout as weights()).
  double log_likelihood(const EncodedSentence& sentence, std::span<double> grad,
                        Scratch& scratch) const;
  double log_likelihood(const EncodedSentence& sentence,
                        std::span<double> grad = {}) const;

  /// Tag-level posterior marginals (states folded down to tags).
  SentencePosteriors posteriors(const EncodedSentence& sentence,
                                Scratch& scratch) const;
  /// The same posteriors into caller rows (one per position): fills
  /// tag_marginals[0, n) and pairwise_marginals[1, n), resizing any row not
  /// already sized to the label count, and returns log Z. Allocates nothing
  /// on a warm scratch and correctly sized rows.
  double posteriors(const EncodedSentence& sentence, Scratch& scratch,
                    std::span<text::LabelDist> tag_marginals,
                    std::span<text::LabelMatrix> pairwise_marginals) const;
  [[nodiscard]] SentencePosteriors posteriors(const EncodedSentence& sentence) const;

  /// Expected tag-bigram counts E[count(t at i-1, t' at i)] summed over the
  /// sentence, added into `counts` (L x L row-major, sized to the space's
  /// label count). Used to derive the tag-transition matrix GraphNER's
  /// final Viterbi consumes.
  void accumulate_tag_transition_expectations(const EncodedSentence& sentence,
                                              text::LabelMatrix& counts,
                                              Scratch& scratch) const;
  void accumulate_tag_transition_expectations(const EncodedSentence& sentence,
                                              text::LabelMatrix& counts) const;

  /// MAP decode to tags.
  std::vector<text::Tag> viterbi(const EncodedSentence& sentence,
                                 Scratch& scratch) const;
  [[nodiscard]] std::vector<text::Tag> viterbi(const EncodedSentence& sentence) const;

  // --- weight slot helpers (shared with the trainer) ---
  [[nodiscard]] std::size_t emission_slot(FeatureIndex::Id f, StateId s) const noexcept {
    return static_cast<std::size_t>(f) * space_.num_states() + s;
  }
  [[nodiscard]] std::size_t transition_base() const noexcept {
    return num_features_ * space_.num_states();
  }
  [[nodiscard]] std::size_t start_base() const noexcept {
    return transition_base() + space_.transitions().size();
  }

 private:
  /// Scaled linear-domain forward-backward. Postcondition (shared with the
  /// log-space fallback): sc.log_z, sc.node (n x S node marginals) and
  /// sc.pair (n x |transitions()| edge marginals, row 0 unused) are filled;
  /// everything else in the scratch is internal workspace.
  void run_forward_backward(const EncodedSentence& sentence, Scratch& sc) const;
  /// Log-space recurrences for sentences whose scaled lattice degenerates
  /// (a position where the forward row underflows behind a constraint).
  /// Fills node/pair directly from the log-domain lattice: the factored
  /// scaled representation cannot express forward/backward masses whose
  /// ratios exceed the double range even when their products (the
  /// marginals) are ordinary probabilities.
  void run_forward_backward_logspace(const EncodedSentence& sentence,
                                     Scratch& sc) const;
  /// Recompute exp(transition)/exp(start) caches after a weight change.
  void rebuild_weight_caches();

  StateSpace space_;
  std::size_t num_features_;
  std::vector<double> weights_;  ///< [emission | transition | start] (owned)
  /// The active weight table: `weights_` after set_weights, caller-owned
  /// storage after set_weights_view. Every reader goes through this span.
  std::span<const double> wspan_;

  // Weight-derived caches, rebuilt by set_weights(). exp() of a transition
  // or start weight; per-edge copies follow the CSR edge order so the inner
  // loops stream through them linearly.
  std::vector<double> exp_trans_slot_;  ///< per transition slot
  std::vector<double> exp_trans_in_;    ///< incoming CSR edge order
  std::vector<double> exp_trans_out_;   ///< outgoing CSR edge order
  std::vector<double> trans_in_;        ///< raw weights, incoming CSR order
  std::vector<double> exp_start_;       ///< per state; 0 for illegal starts

  // Space-derived lookup tables, built once in the constructor.
  std::vector<std::uint8_t> state_tag_idx_;   ///< tag index per state
  std::vector<std::uint8_t> slot_tag_pair_;   ///< tag_from * num_labels + tag_to
};

}  // namespace graphner::crf
