// Tests for BANNER/ChemDNER feature extraction, encoding and MI selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "src/corpus/generator.hpp"
#include "src/corpus/jnlpba.hpp"
#include "src/features/encoder.hpp"
#include "src/features/extractor.hpp"
#include "src/features/gazetteer.hpp"
#include "src/features/mi_selection.hpp"
#include "src/graphner/pipeline.hpp"

namespace graphner::features {
namespace {

using text::Sentence;
using text::Tag;

Sentence make_sentence(std::vector<std::string> tokens, std::vector<Tag> tags = {}) {
  Sentence s;
  s.id = "t";
  s.tokens = std::move(tokens);
  s.tags = std::move(tags);
  return s;
}

bool has_feature(const TokenFeatures& feats, const std::string& name) {
  return std::find(feats.begin(), feats.end(), name) != feats.end();
}

TEST(Extractor, TokenIdentityAndContext) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto s = make_sentence({"the", "FLT3", "gene"});
  const auto feats = extractor.extract_at(s, 1);
  EXPECT_TRUE(has_feature(feats, "W=FLT3"));
  EXPECT_TRUE(has_feature(feats, "WL=flt3"));
  EXPECT_TRUE(has_feature(feats, "C[-1]=the"));
  EXPECT_TRUE(has_feature(feats, "C[1]=gene"));
  EXPECT_TRUE(has_feature(feats, "C[-2]=<s>"));
  EXPECT_TRUE(has_feature(feats, "C[2]=</s>"));
}

TEST(Extractor, OrthographicPredicates) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto s = make_sentence({"FLT3", "-", "positive", "IV", "alpha"});
  EXPECT_TRUE(has_feature(extractor.extract_at(s, 0), "ALLCAPS"));
  EXPECT_TRUE(has_feature(extractor.extract_at(s, 0), "ALPHANUM"));
  EXPECT_TRUE(has_feature(extractor.extract_at(s, 1), "ISPUNCT"));
  EXPECT_TRUE(has_feature(extractor.extract_at(s, 1), "SINGLECHAR"));
  EXPECT_TRUE(has_feature(extractor.extract_at(s, 3), "ROMAN"));
  EXPECT_TRUE(has_feature(extractor.extract_at(s, 4), "GREEK"));
  EXPECT_FALSE(has_feature(extractor.extract_at(s, 2), "ALLCAPS"));
}

TEST(Extractor, ShapesAndAffixes) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto feats = extractor.extract_at(make_sentence({"Abc12"}), 0);
  EXPECT_TRUE(has_feature(feats, "SHAPE=Aaa00"));
  EXPECT_TRUE(has_feature(feats, "CSHAPE=Aa0"));
  EXPECT_TRUE(has_feature(feats, "PRE2=ab"));
  EXPECT_TRUE(has_feature(feats, "SUF2=12"));
}

TEST(Extractor, CharNgramsArePadded) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto feats = extractor.extract_at(make_sentence({"ab"}), 0);
  EXPECT_TRUE(has_feature(feats, "CN2=^a"));
  EXPECT_TRUE(has_feature(feats, "CN2=b$"));
  EXPECT_TRUE(has_feature(feats, "CN3=^ab"));
}

TEST(Extractor, DisabledGroupsProduceNothing) {
  FeatureConfig config;
  config.token_identity = false;
  config.lemmas = false;
  config.context = false;
  config.token_bigrams = false;
  config.shapes = false;
  config.affixes = false;
  config.char_ngrams = false;
  config.orthographic = false;
  config.length_bucket = false;
  const FeatureExtractor extractor{config};
  EXPECT_TRUE(extractor.extract_at(make_sentence({"FLT3"}), 0).empty());
}

TEST(Extractor, ChemDnerAddsEmbeddingFeatures) {
  embeddings::EmbeddingClusters clusters;
  clusters.k = 2;
  clusters.assignment["flt3"] = 1;
  FeatureConfig config;
  config.embedding_clusters = &clusters;
  const FeatureExtractor extractor{config};
  const auto feats = extractor.extract_at(make_sentence({"FLT3"}), 0);
  EXPECT_TRUE(has_feature(feats, "EMB=1"));
}

TEST(Encoder, TrainingInternsInferenceDrops) {
  const FeatureExtractor extractor{FeatureConfig{}};
  crf::FeatureIndex index;
  const auto space = crf::StateSpace::order1();
  const auto train_sentence =
      make_sentence({"the", "gene"}, {Tag::kO, Tag::kB});
  const auto encoded =
      encode_for_training(train_sentence, extractor, index, space);
  EXPECT_EQ(encoded.states.size(), 2U);
  EXPECT_GT(index.size(), 0U);
  index.freeze();

  // Inference on a sentence with unseen tokens: unknown features dropped.
  const auto test_sentence = make_sentence({"zzqqy", "gene"});
  const auto test_encoded = encode_for_inference(test_sentence, extractor, index);
  EXPECT_TRUE(test_encoded.states.empty());
  // Every id must be in range.
  for (const auto& feats : test_encoded.features)
    for (const auto id : feats) EXPECT_LT(id, index.size());
  // "gene" was seen: position 1 keeps some features; position 0 keeps fewer.
  EXPECT_GT(test_encoded.features[1].size(), test_encoded.features[0].size());
}

TEST(Encoder, FeatureIdsSortedUnique) {
  const FeatureExtractor extractor{FeatureConfig{}};
  crf::FeatureIndex index;
  const auto space = crf::StateSpace::order1();
  const auto encoded = encode_for_training(
      make_sentence({"aa", "aa", "aa"}, {Tag::kO, Tag::kO, Tag::kO}), extractor,
      index, space);
  for (const auto& feats : encoded.features) {
    EXPECT_TRUE(std::is_sorted(feats.begin(), feats.end()));
    EXPECT_EQ(std::adjacent_find(feats.begin(), feats.end()), feats.end());
  }
}

// --- golden encode: the lookup path against extract()'s strings ------------

/// One feature row the string way: extract()'s names, looked up, sorted.
std::vector<crf::FeatureIndex::Id> string_row(const TokenFeatures& names,
                                              const crf::FeatureIndex& index) {
  std::vector<crf::FeatureIndex::Id> ids;
  for (const auto& name : names)
    if (const auto id = index.find(name)) ids.push_back(*id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// An index interned from extract()'s strings over `sentences`, the way
/// training builds the model's index.
crf::FeatureIndex intern_all(const std::vector<Sentence>& sentences,
                             const FeatureExtractor& extractor) {
  crf::FeatureIndex index;
  for (const auto& sentence : sentences)
    for (const auto& names : extractor.extract(sentence))
      for (const auto& name : names) index.intern(name);
  index.freeze();
  return index;
}

enum class GoldenCorpus { kBc2gm, kAml, kJnlpba };

struct GoldenCase {
  GoldenCorpus corpus;
  core::CrfProfile profile;
};

/// The parameter as ctest names it ("bc2gm_banner", ...).
void PrintTo(const GoldenCase& c, std::ostream* out) {
  *out << (c.corpus == GoldenCorpus::kBc2gm ? "bc2gm"
           : c.corpus == GoldenCorpus::kAml ? "aml"
                                            : "jnlpba")
       << (c.profile == core::CrfProfile::kBanner ? "_banner" : "_chemdner");
}

class GoldenEncode : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenEncode, LookupRowsAndDecodesMatchTheStringPath) {
  const GoldenCase c = GetParam();
  core::GraphNerConfig config;
  config.profile = c.profile;
  config.gazetteer_features = true;
  corpus::LabelledCorpus data;
  switch (c.corpus) {
    case GoldenCorpus::kBc2gm:
      data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.06, 21));
      break;
    case GoldenCorpus::kAml:
      data = corpus::generate_corpus(corpus::aml_like_spec(0.06, 22));
      break;
    case GoldenCorpus::kJnlpba:
      data = corpus::generate_jnlpba_corpus(corpus::jnlpba_like_spec(0.05, 23));
      config.labels = corpus::jnlpba_label_set();
      break;
  }
  std::vector<Sentence> raw;
  for (const auto& s : data.test) raw.push_back(make_sentence(s.tokens));
  const auto model = core::GraphNerModel::train(data.train, raw, config);
  const FeatureExtractor& extractor = model.extractor();
  ASSERT_NE(extractor.config().gazetteer, nullptr);
  const crf::FeatureIndex index = intern_all(data.train, extractor);

  std::vector<Sentence> all = data.train;
  all.insert(all.end(), data.test.begin(), data.test.end());
  // One warm scratch across every sentence: rows, memo and parked rows
  // carry over from sentence to sentence.
  EncodeScratch warm;
  std::size_t rows_checked = 0;
  for (const auto& sentence : all) {
    const auto names = extractor.extract(sentence);
    const crf::EncodedSentence& encoded =
        encode_for_inference(sentence, extractor, index, warm);
    ASSERT_EQ(encoded.size(), sentence.size());
    for (std::size_t i = 0; i < sentence.size(); ++i, ++rows_checked)
      ASSERT_EQ(encoded.features[i], string_row(names[i], index))
          << sentence.id << " position " << i;
  }
  EXPECT_GT(rows_checked, 400U);

  // Tags through a warm scratch equal tags through a fresh one.
  std::vector<std::vector<text::Tag>> serial;
  crf::LinearChainCrf::Scratch crf_warm;
  for (const auto& sentence : data.test) {
    crf::LinearChainCrf::Scratch crf_fresh;
    EncodeScratch fresh;
    ASSERT_EQ(model.decode_one(sentence, crf_warm, warm),
              model.decode_one(sentence, crf_fresh, fresh));
    EncodeScratch fresh_blended;
    serial.push_back(model.decode_one_blended(sentence, crf_warm, warm));
    ASSERT_EQ(serial.back(), model.decode_one_blended(sentence, crf_fresh, fresh_blended));
  }

  // Four threads over one shared model, each with its own scratch.
  std::vector<std::vector<text::Tag>> threaded(data.test.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      crf::LinearChainCrf::Scratch crf_scratch;
      EncodeScratch encode;
      for (std::size_t i = t; i < data.test.size(); i += 4)
        threaded[i] = model.decode_one_blended(data.test[i], crf_scratch, encode);
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(threaded, serial);
}

INSTANTIATE_TEST_SUITE_P(
    CorporaAndProfiles, GoldenEncode,
    ::testing::Values(GoldenCase{GoldenCorpus::kBc2gm, core::CrfProfile::kBanner},
                      GoldenCase{GoldenCorpus::kBc2gm, core::CrfProfile::kBannerChemDner},
                      GoldenCase{GoldenCorpus::kAml, core::CrfProfile::kBanner},
                      GoldenCase{GoldenCorpus::kAml, core::CrfProfile::kBannerChemDner},
                      GoldenCase{GoldenCorpus::kJnlpba, core::CrfProfile::kBanner},
                      GoldenCase{GoldenCorpus::kJnlpba, core::CrfProfile::kBannerChemDner}));

TEST(Encoder, ScratchReusedAcrossIndexesMatchesFreshScratch) {
  // The token memo is keyed by the index's serial: a scratch that moves
  // between two indexes with different ids (and back after one of them
  // grows) must encode exactly like a fresh scratch every time.
  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.03, 5));
  const FeatureExtractor extractor{FeatureConfig{}};
  crf::FeatureIndex forward = intern_all(data.train, extractor);
  crf::FeatureIndex reversed;
  for (std::size_t id = forward.size(); id-- > 0;)
    reversed.intern(forward.name(static_cast<crf::FeatureIndex::Id>(id)));
  crf::FeatureIndex growing = reversed;
  EncodeScratch shared;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    if (i == data.test.size() / 2)
      for (const auto& token : data.test[i].tokens) growing.intern("W=" + token + "#");
    for (const crf::FeatureIndex* index : {&forward, &reversed, &growing}) {
      EncodeScratch fresh;
      EXPECT_EQ(encode_for_inference(data.test[i], extractor, *index, shared).features,
                encode_for_inference(data.test[i], extractor, *index, fresh).features);
    }
  }
}

TEST(FeatureIndex, OpenAddressedTableMatchesInterningOrder) {
  crf::FeatureIndex index;
  std::vector<std::string> names;
  for (int i = 0; i < 5000; ++i) names.push_back("F" + std::to_string(i * 7919 % 10007));
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(index.intern(names[i]), i);
  EXPECT_EQ(index.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(index.intern(names[i]), i);  // re-interning finds, never adds
    EXPECT_EQ(index.find(names[i]), std::optional<crf::FeatureIndex::Id>(i));
    EXPECT_EQ(index.name(static_cast<crf::FeatureIndex::Id>(i)), names[i]);
  }
  EXPECT_EQ(index.size(), names.size());
  EXPECT_FALSE(index.find("F10007").has_value());
  EXPECT_FALSE(index.find("").has_value());
  EXPECT_FALSE(crf::FeatureIndex{}.find("F1").has_value());
  const std::uint64_t serial = index.serial();
  (void)index.intern(names[3]);
  EXPECT_EQ(index.serial(), serial);  // no new name, same mapping
  (void)index.intern("new");
  EXPECT_NE(index.serial(), serial);
}

TEST(MiSelection, DiscriminativeFeatureRanksHigh) {
  // Token "genex" is always B; token "filler" always O.
  std::vector<Sentence> corpus;
  for (int i = 0; i < 40; ++i) {
    corpus.push_back(make_sentence({"genex", "filler"}, {Tag::kB, Tag::kO}));
    corpus.push_back(make_sentence({"filler", "genex"}, {Tag::kO, Tag::kB}));
  }
  FeatureConfig config;  // identity features only, to keep MI interpretable
  config.context = false;
  config.token_bigrams = false;
  config.char_ngrams = false;
  config.affixes = false;
  const FeatureExtractor extractor{config};
  const auto scores = feature_mutual_information(corpus, extractor);
  ASSERT_FALSE(scores.empty());
  // W=genex should have near-maximal MI; find its rank.
  std::size_t rank = scores.size();
  for (std::size_t i = 0; i < scores.size(); ++i)
    if (scores[i].feature == "W=genex") rank = i;
  EXPECT_LT(rank, 6U);

  const auto selected = select_by_mi(scores, 0.01);
  EXPECT_TRUE(selected.contains("W=genex"));
}

TEST(MiSelection, ThresholdFilters) {
  const std::vector<MiScore> scores = {{"a", 0.5}, {"b", 0.01}, {"c", 0.0001}};
  const auto selected = select_by_mi(scores, 0.005);
  EXPECT_EQ(selected.size(), 2U);
  EXPECT_FALSE(selected.contains("c"));
}

}  // namespace
}  // namespace graphner::features
