// Golden-equivalence and hardening tests for the training-side kernels:
// windowed Brown clustering vs the frozen dense reference, Hogwild word2vec
// vs the serial trajectory, parallel k-means, and model I/O validation.
//
// Suite names matter: CI's TSAN job selects the multi-threaded suites with
// `ctest -R "Hogwild|WindowedBrown|ParallelKMeans"`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/corpus/generator.hpp"
#include "src/embeddings/brown.hpp"
#include "src/embeddings/brown_reference.hpp"
#include "src/embeddings/word2vec.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/obs/span.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace graphner::embeddings {
namespace {

/// Two interchangeable word families sharing contexts (same shape as
/// test_embeddings.cpp, separate copy so the files stay independent).
std::vector<text::Sentence> family_corpus(std::size_t repetitions) {
  const std::vector<std::string> nouns = {"cat", "dog", "bird", "fish"};
  const std::vector<std::string> adjs = {"big", "small", "fast", "slow"};
  std::vector<text::Sentence> corpus;
  util::Rng rng(17);
  for (std::size_t i = 0; i < repetitions; ++i) {
    text::Sentence s;
    s.id = "s" + std::to_string(i);
    s.tokens = {"the", nouns[rng.below(nouns.size())], "was",
                adjs[rng.below(adjs.size())], "."};
    corpus.push_back(std::move(s));
  }
  return corpus;
}

/// Gene-literature-shaped sentences: realistic vocabulary growth and bigram
/// sparsity, unlike the 10-word family corpus.
std::vector<text::Sentence> bc2gm_corpus(std::size_t count) {
  return corpus::generate_unlabelled(corpus::bc2gm_like_spec(1.0, 42), count, 99);
}

std::string serialized(const BrownClustering& brown) {
  std::ostringstream out;
  brown.save(out);
  return out.str();
}

/// Byte-identical serialized model == identical cluster paths AND identical
/// word -> cluster assignment (save() writes both tables).
void expect_golden_equivalent(const std::vector<text::Sentence>& corpus,
                              const BrownConfig& config) {
  const auto golden = train_brown_reference(corpus, config);
  const auto windowed = BrownClustering::train(corpus, config);
  ASSERT_EQ(golden.num_clusters(), windowed.num_clusters());
  ASSERT_EQ(golden.vocabulary_size(), windowed.vocabulary_size());
  EXPECT_EQ(serialized(golden), serialized(windowed));
}

TEST(WindowedBrown, GoldenEquivalenceFamilyCorpus) {
  const auto corpus = family_corpus(400);
  expect_golden_equivalent(corpus, {4, 100, 1});
  expect_golden_equivalent(corpus, {8, 100, 1});
  expect_golden_equivalent(corpus, {3, 6, 2});  // vocabulary cap binds
}

TEST(WindowedBrown, GoldenEquivalenceBc2gmCorpus) {
  const auto corpus = bc2gm_corpus(250);
  expect_golden_equivalent(corpus, {16, 300, 2});
  expect_golden_equivalent(corpus, {24, 200, 1});
}

TEST(WindowedBrown, GoldenEquivalenceMultiThreaded) {
  // The parallel candidate scan must not change the merge sequence: the
  // argmin reduction keeps the first strict minimum in candidate order
  // regardless of how the range is chunked across workers.
  const auto corpus = bc2gm_corpus(200);
  const int saved = util::num_threads();
  util::set_num_threads(4);
  expect_golden_equivalent(corpus, {12, 250, 1});
  util::set_num_threads(saved);
}

TEST(WindowedBrown, SaveLoadRoundTrip) {
  const auto brown = BrownClustering::train(family_corpus(200), {4, 100, 1});
  std::stringstream stream;
  brown.save(stream);
  const auto loaded = BrownClustering::load(stream);
  // save() iterates an unordered_map, so compare the serializations as
  // sorted line sets rather than byte streams.
  auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(lines(serialized(brown)), lines(serialized(loaded)));
  EXPECT_EQ(loaded.cluster("cat"), brown.cluster("cat"));
  EXPECT_EQ(loaded.path("big"), brown.path("big"));
}

TEST(BrownIO, RejectsMalformedHeader) {
  std::istringstream in("banana split\n");
  EXPECT_THROW(BrownClustering::load(in), std::runtime_error);
}

TEST(BrownIO, RejectsMoreClustersThanWords) {
  std::istringstream in("5 2\n0\n1\n00\n01\n10\na 0\nb 1\n");
  EXPECT_THROW(BrownClustering::load(in), std::runtime_error);
}

TEST(BrownIO, RejectsTruncatedPathTable) {
  std::istringstream in("3 3\n0\n1\n");
  EXPECT_THROW(BrownClustering::load(in), std::runtime_error);
}

TEST(BrownIO, RejectsNonBitStringPath) {
  std::istringstream in("2 2\n0x\n1\na 0\nb 1\n");
  EXPECT_THROW(BrownClustering::load(in), std::runtime_error);
}

TEST(BrownIO, RejectsTruncatedWordTable) {
  std::istringstream in("2 3\n0\n1\na 0\nb 1\n");
  EXPECT_THROW(BrownClustering::load(in), std::runtime_error);
}

TEST(BrownIO, RejectsOutOfRangeClusterId) {
  std::istringstream in("2 2\n0\n1\na 0\nb 7\n");
  EXPECT_THROW(BrownClustering::load(in), std::runtime_error);
  std::istringstream neg("2 2\n0\n1\na 0\nb -1\n");
  EXPECT_THROW(BrownClustering::load(neg), std::runtime_error);
}

TEST(BrownIO, RejectsDuplicateWord) {
  std::istringstream in("2 2\n0\n1\na 0\na 1\n");
  EXPECT_THROW(BrownClustering::load(in), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Frozen copy of the pre-Hogwild serial word2vec trainer (the exact code
// that shipped before `threads` existed). The production `threads = 1` path
// must reproduce this trajectory bitwise. Do not "fix" or modernize.

constexpr std::size_t kRefNegativeTableSize = 1 << 17;

[[nodiscard]] float ref_sigmoid(float x) noexcept {
  if (x > 8.0F) return 1.0F;
  if (x < -8.0F) return 0.0F;
  return 1.0F / (1.0F + std::exp(-x));
}

std::unordered_map<std::string, std::vector<float>> reference_word2vec(
    const std::vector<text::Sentence>& sentences, const Word2VecConfig& config) {
  std::unordered_map<std::string, std::uint64_t> counts;
  std::uint64_t total_tokens = 0;
  for (const auto& sentence : sentences) {
    for (const auto& raw : sentence.tokens) {
      ++counts[util::to_lower(raw)];
      ++total_tokens;
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> vocab;
  for (auto& [word, count] : counts)
    if (count >= config.min_count) vocab.emplace_back(word, count);
  std::sort(vocab.begin(), vocab.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < vocab.size(); ++i) index[vocab[i].first] = i;
  const std::size_t v = vocab.size();
  if (v == 0 || total_tokens == 0) return {};

  std::vector<std::size_t> neg_table(kRefNegativeTableSize);
  {
    double z = 0.0;
    for (const auto& [_, count] : vocab) z += std::pow(static_cast<double>(count), 0.75);
    std::size_t word = 0;
    double cum = std::pow(static_cast<double>(vocab[0].second), 0.75) / z;
    for (std::size_t i = 0; i < kRefNegativeTableSize; ++i) {
      neg_table[i] = word;
      if (static_cast<double>(i) / kRefNegativeTableSize > cum && word + 1 < v) {
        ++word;
        cum += std::pow(static_cast<double>(vocab[word].second), 0.75) / z;
      }
    }
  }

  util::Rng rng(config.seed);
  std::vector<float> input(v * config.dimensions, 0.0F);
  std::vector<float> output(v * config.dimensions, 0.0F);
  for (auto& x : input)
    x = static_cast<float>(rng.uniform(-0.5, 0.5) / static_cast<double>(config.dimensions));

  std::vector<std::vector<std::size_t>> encoded;
  for (const auto& sentence : sentences) {
    std::vector<std::size_t> ids;
    for (const auto& raw : sentence.tokens) {
      const auto it = index.find(util::to_lower(raw));
      if (it != index.end()) ids.push_back(it->second);
    }
    if (ids.size() >= 2) encoded.push_back(std::move(ids));
  }

  const std::size_t dims = config.dimensions;
  std::vector<float> grad_center(dims);
  std::uint64_t processed = 0;
  const std::uint64_t budget = std::max<std::uint64_t>(1, config.epochs * total_tokens);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& ids : encoded) {
      for (std::size_t pos = 0; pos < ids.size(); ++pos) {
        ++processed;
        const std::size_t center = ids[pos];
        const double freq = static_cast<double>(vocab[center].second) /
                            static_cast<double>(total_tokens);
        if (freq > config.subsample_threshold) {
          const double keep = std::sqrt(config.subsample_threshold / freq) +
                              config.subsample_threshold / freq;
          if (!rng.flip(std::min(1.0, keep))) continue;
        }
        const float lr = static_cast<float>(
            config.initial_lr *
            std::max(0.05, 1.0 - static_cast<double>(processed) /
                               static_cast<double>(budget)));
        const std::size_t window = 1 + rng.below(config.window);
        const std::size_t lo = pos >= window ? pos - window : 0;
        const std::size_t hi = std::min(ids.size(), pos + window + 1);
        float* vc = input.data() + center * dims;
        for (std::size_t ctx = lo; ctx < hi; ++ctx) {
          if (ctx == pos) continue;
          std::fill(grad_center.begin(), grad_center.end(), 0.0F);
          for (std::size_t neg = 0; neg <= config.negatives; ++neg) {
            std::size_t target;
            float label;
            if (neg == 0) {
              target = ids[ctx];
              label = 1.0F;
            } else {
              target = neg_table[rng.below(kRefNegativeTableSize)];
              if (target == ids[ctx]) continue;
              label = 0.0F;
            }
            float* vo = output.data() + target * dims;
            float score = 0.0F;
            for (std::size_t d = 0; d < dims; ++d) score += vc[d] * vo[d];
            const float g = (label - ref_sigmoid(score)) * lr;
            for (std::size_t d = 0; d < dims; ++d) {
              grad_center[d] += g * vo[d];
              vo[d] += g * vc[d];
            }
          }
          for (std::size_t d = 0; d < dims; ++d) vc[d] += grad_center[d];
        }
      }
    }
  }

  std::unordered_map<std::string, std::vector<float>> vectors;
  for (std::size_t i = 0; i < v; ++i)
    vectors[vocab[i].first] =
        std::vector<float>(input.begin() + static_cast<std::ptrdiff_t>(i * dims),
                           input.begin() + static_cast<std::ptrdiff_t>((i + 1) * dims));
  return vectors;
}

TEST(HogwildWord2Vec, SingleThreadBitwiseMatchesSerialReference) {
  const auto corpus = family_corpus(150);
  Word2VecConfig config;
  config.min_count = 1;
  config.epochs = 2;
  config.dimensions = 16;
  config.threads = 1;
  const auto golden = reference_word2vec(corpus, config);
  const auto model = Word2Vec::train(corpus, config);
  ASSERT_EQ(model.vocabulary_size(), golden.size());
  for (const auto& [word, expected] : golden) {
    const auto actual = model.vector(word);
    ASSERT_TRUE(actual.has_value()) << word;
    ASSERT_EQ(actual->size(), expected.size());
    for (std::size_t d = 0; d < expected.size(); ++d)
      EXPECT_EQ((*actual)[d], expected[d]) << word << " dim " << d;
  }
}

TEST(HogwildWord2Vec, MultiThreadedNeighbourQuality) {
  const auto corpus = family_corpus(600);
  Word2VecConfig config;
  config.min_count = 1;
  config.epochs = 6;
  config.dimensions = 16;
  config.threads = 4;
  const auto model = Word2Vec::train(corpus, config);
  EXPECT_GT(model.vocabulary_size(), 8U);
  // Same-family similarity should exceed cross-family similarity, racy
  // updates or not.
  EXPECT_GT(model.similarity("cat", "dog"), model.similarity("cat", "fast"));
  for (const auto& word : model.words()) {
    const auto vec = model.vector(word);
    for (const float x : *vec) EXPECT_TRUE(std::isfinite(x)) << word;
  }
}

TEST(HogwildWord2Vec, SimilarityUsesCachedNormsConsistently) {
  const auto corpus = family_corpus(200);
  Word2VecConfig config;
  config.min_count = 1;
  config.epochs = 2;
  const auto model = Word2Vec::train(corpus, config);
  const auto va = model.vector("cat");
  const auto vb = model.vector("dog");
  ASSERT_TRUE(va && vb);
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t d = 0; d < va->size(); ++d) {
    dot += static_cast<double>((*va)[d]) * (*vb)[d];
    na += static_cast<double>((*va)[d]) * (*va)[d];
    nb += static_cast<double>((*vb)[d]) * (*vb)[d];
  }
  EXPECT_NEAR(model.similarity("cat", "dog"),
              dot / (std::sqrt(na) * std::sqrt(nb)), 1e-12);
  EXPECT_EQ(model.similarity("cat", "notaword"), 0.0);
}

TEST(Word2VecIO, RoundTripPreservesVectorsAndSimilarity) {
  const auto corpus = family_corpus(150);
  Word2VecConfig config;
  config.min_count = 1;
  config.epochs = 1;
  const auto model = Word2Vec::train(corpus, config);
  std::stringstream stream;
  model.save(stream);
  const auto loaded = Word2Vec::load(stream);
  ASSERT_EQ(loaded.vocabulary_size(), model.vocabulary_size());
  ASSERT_EQ(loaded.dimensions(), model.dimensions());
  for (const auto& word : model.words()) {
    const auto a = model.vector(word);
    const auto b = loaded.vector(word);
    ASSERT_TRUE(b.has_value()) << word;
    for (std::size_t d = 0; d < a->size(); ++d)
      EXPECT_EQ((*a)[d], (*b)[d]) << word << " dim " << d;  // 9 sig digits round-trips float
  }
  EXPECT_DOUBLE_EQ(loaded.similarity("cat", "dog"), model.similarity("cat", "dog"));
}

TEST(Word2VecIO, RejectsBadMagic) {
  std::istringstream in("wordtovec 1 2\na 0.5 0.5\nend\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
}

TEST(Word2VecIO, RejectsMalformedHeader) {
  std::istringstream in("word2vec one 2\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
}

TEST(Word2VecIO, RejectsZeroDimensionsWithWords) {
  std::istringstream in("word2vec 2 0\na\nb\nend\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
}

TEST(Word2VecIO, RejectsTruncatedTable) {
  std::istringstream in("word2vec 3 2\na 0.1 0.2\nb 0.3 0.4\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
}

TEST(Word2VecIO, RejectsTruncatedVector) {
  std::istringstream in("word2vec 1 4\na 0.1 0.2\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
}

TEST(Word2VecIO, RejectsNonFiniteComponent) {
  std::istringstream in("word2vec 1 2\na nan 0.2\nend\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
  std::istringstream inf("word2vec 1 2\na 0.1 inf\nend\n");
  EXPECT_THROW(Word2Vec::load(inf), std::runtime_error);
}

TEST(Word2VecIO, RejectsDuplicateWord) {
  std::istringstream in("word2vec 2 2\na 0.1 0.2\na 0.3 0.4\nend\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
}

TEST(Word2VecIO, RejectsMissingEndSentinel) {
  std::istringstream in("word2vec 1 2\na 0.1 0.2\n");
  EXPECT_THROW(Word2Vec::load(in), std::runtime_error);
}

TEST(ParallelKMeans, ThreadCountDoesNotChangeAssignments) {
  const auto corpus = family_corpus(300);
  Word2VecConfig config;
  config.min_count = 1;
  config.epochs = 3;
  const auto model = Word2Vec::train(corpus, config);
  const int saved = util::num_threads();
  util::set_num_threads(1);
  const auto serial = cluster_embeddings(model, 3);
  util::set_num_threads(4);
  const auto parallel = cluster_embeddings(model, 3);
  util::set_num_threads(saved);
  ASSERT_EQ(serial.k, parallel.k);
  for (const auto& word : model.words())
    EXPECT_EQ(serial.cluster(word), parallel.cluster(word)) << word;
}

TEST(ParallelKMeans, AssignsEveryWordUnderThreads) {
  const auto corpus = family_corpus(300);
  Word2VecConfig config;
  config.min_count = 1;
  config.epochs = 2;
  const auto model = Word2Vec::train(corpus, config);
  const int saved = util::num_threads();
  util::set_num_threads(4);
  const auto clusters = cluster_embeddings(model, 3);
  util::set_num_threads(saved);
  EXPECT_EQ(clusters.k, 3U);
  for (const auto& word : model.words()) {
    const int c = clusters.cluster(word);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
}

// Every TRAIN phase times itself with a "train.<phase>" span on the calling
// thread; a capture around train() reads them back.
TEST(TrainingTimings, PhasesPopulatedForChemDnerProfile) {
  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.1, 42));
  core::GraphNerConfig config;
  config.profile = core::CrfProfile::kBannerChemDner;
  config.embedding_threads = 2;  // Hogwild path must also populate timers
  obs::SpanCapture trace;
  const auto model = core::GraphNerModel::train(data.train, {}, config);
  EXPECT_GT(trace.total_seconds("train.brown"), 0.0);
  EXPECT_GT(trace.total_seconds("train.word2vec"), 0.0);
  EXPECT_GT(trace.total_seconds("train.kmeans"), 0.0);
  EXPECT_GT(trace.total_seconds("train.encode"), 0.0);
  EXPECT_GT(trace.total_seconds("train.crf"), 0.0);
  EXPECT_GT(trace.total_seconds("train.reference"), 0.0);
  // train_seconds() (the encode+optimize timer) covers its two phases.
  EXPECT_LE(trace.total_seconds("train.encode") + trace.total_seconds("train.crf"),
            model.train_seconds() + 1e-6);
}

TEST(TrainingTimings, BannerProfileSkipsEmbeddingPhases) {
  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.1, 42));
  obs::SpanCapture trace;
  const auto model =
      core::GraphNerModel::train(data.train, {}, core::GraphNerConfig{});
  EXPECT_EQ(trace.total_seconds("train.brown"), 0.0);
  EXPECT_EQ(trace.total_seconds("train.word2vec"), 0.0);
  EXPECT_EQ(trace.total_seconds("train.kmeans"), 0.0);
  EXPECT_GT(trace.total_seconds("train.crf"), 0.0);
}

}  // namespace
}  // namespace graphner::embeddings
