// The allocation invariant of the hot tagging path, as a test: on a warm
// scratch, encode_for_inference performs no heap allocation and
// decode_one_blended performs at most one (the returned tag vector), for
// in-vocabulary and out-of-vocabulary sentences alike.
//
// Its own executable: it replaces the global operator new with a counting
// one, which must not leak into other test binaries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/corpus/generator.hpp"
#include "src/features/encoder.hpp"
#include "src/graphner/pipeline.hpp"

namespace {

/// Heap allocations made by the calling thread (the code under test runs
/// on the test's own thread).
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace graphner {
namespace core {

/// The parameter as ctest names it.
void PrintTo(CrfProfile profile, std::ostream* out) {
  *out << (profile == CrfProfile::kBanner ? "banner" : "chemdner");
}

}  // namespace core

namespace {

/// Allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = t_allocations;
  fn();
  return t_allocations - before;
}

class EncodeAlloc : public ::testing::TestWithParam<core::CrfProfile> {};

TEST_P(EncodeAlloc, WarmScratchEncodesWithoutAllocating) {
  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.05, 31));
  core::GraphNerConfig config;
  config.profile = GetParam();
  config.gazetteer_features = true;
  const auto model = core::GraphNerModel::train(data.train, {}, config);

  // The model's feature index, rebuilt the way training builds it.
  crf::FeatureIndex index;
  for (const auto& sentence : data.train)
    for (const auto& names : model.extractor().extract(sentence))
      for (const auto& name : names) index.intern(name);
  index.freeze();

  // In-vocabulary sentences, then the same sentences with every token made
  // unseen (so no token has a memoized row).
  std::vector<text::Sentence> sentences(data.test.begin(), data.test.end());
  for (const auto& source : data.test) {
    text::Sentence oov = source;
    for (auto& token : oov.tokens) token = "Qz" + token + "-x9";
    sentences.push_back(std::move(oov));
  }

  // One scratch per index, as a serving worker has: the token memo is kept
  // for one (index, extractor) pair at a time.
  features::EncodeScratch encode;
  features::EncodeScratch decode_encode;
  crf::LinearChainCrf::Scratch scratch;
  for (const auto& sentence : sentences) {  // warm every buffer once
    (void)features::encode_for_inference(sentence, model.extractor(), index, encode);
    (void)model.decode_one_blended(sentence, scratch, decode_encode);
  }
  for (const auto& sentence : sentences) {
    const bool oov = &sentence >= &sentences[data.test.size()];
    EXPECT_EQ(allocations_of([&] {
                (void)features::encode_for_inference(sentence, model.extractor(), index,
                                                     encode);
              }),
              0U)
        << sentence.id << (oov ? " (oov)" : "");
    std::vector<text::Tag> tags;
    EXPECT_LE(allocations_of([&] { tags = model.decode_one_blended(sentence, scratch, decode_encode); }),
              1U)
        << sentence.id << (oov ? " (oov)" : "");
    EXPECT_EQ(tags.size(), sentence.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, EncodeAlloc,
                         ::testing::Values(core::CrfProfile::kBanner,
                                           core::CrfProfile::kBannerChemDner));

}  // namespace
}  // namespace graphner
