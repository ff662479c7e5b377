// Frozen pre-windowing Brown clustering trainer (golden reference).
//
// This is the original dense-matrix implementation of
// BrownClustering::train, kept verbatim (it only hands its clusters back
// through BrownClustering's save/load text format instead of filling the
// class's members) for two purposes:
//
//   * golden-equivalence tests: the windowed trainer in brown.cpp must
//     reproduce this implementation's merge sequence bit for bit
//     (tests/test_train_kernels.cpp), and
//   * before/after benchmarking: bench/train_kernels interleaves this
//     trainer with the windowed one and reports the speedup.
//
// It allocates a dense V x V cluster-bigram matrix (quadratic in the
// *vocabulary*, not the cluster count) and recomputes every merge loss
// from scratch, so it is intentionally slow at scale. Do not use outside
// tests and benchmarks; do not "fix" it — its whole value is staying
// byte-for-byte what shipped before the windowed rewrite.
#pragma once

#include "src/embeddings/brown.hpp"

namespace graphner::embeddings {

/// Train with the frozen dense-matrix algorithm. Produces the same cluster
/// paths and word assignments as BrownClustering::train.
[[nodiscard]] BrownClustering train_brown_reference(
    const std::vector<text::Sentence>& sentences, const BrownConfig& config);

}  // namespace graphner::embeddings
