// Tests for GraphNerModel persistence: a loaded model must decode
// identically to the model that was saved, for both profiles.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/corpus/generator.hpp"
#include "src/graphner/model_format.hpp"
#include "src/graphner/pipeline.hpp"

namespace graphner::core {
namespace {

class ModelIoRoundtrip : public ::testing::TestWithParam<CrfProfile> {};

TEST_P(ModelIoRoundtrip, LoadedModelDecodesIdentically) {
  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.1, 42));
  GraphNerConfig config;
  config.profile = GetParam();

  std::vector<text::Sentence> unlabelled;
  for (const auto& s : data.test) {
    text::Sentence stripped;
    stripped.id = s.id;
    stripped.tokens = s.tokens;
    unlabelled.push_back(std::move(stripped));
  }
  const auto original = GraphNerModel::train(data.train, unlabelled, config);

  std::stringstream buffer;
  original.save(buffer);
  const auto restored = GraphNerModel::load(buffer);

  EXPECT_EQ(restored.feature_count(), original.feature_count());
  EXPECT_EQ(restored.reference().size(), original.reference().size());
  EXPECT_EQ(restored.config().alpha, original.config().alpha);
  EXPECT_EQ(restored.config().crf_order, original.config().crf_order);

  // Pure-CRF decode must match token for token.
  EXPECT_EQ(restored.decode_crf(data.test), original.decode_crf(data.test));

  // The full Algorithm 1 decode must match too.
  const auto a = original.test(data.train, data.test);
  const auto b = restored.test(data.train, data.test);
  EXPECT_EQ(a.graphner_tags, b.graphner_tags);
  EXPECT_EQ(a.baseline_tags, b.baseline_tags);
}

INSTANTIATE_TEST_SUITE_P(Profiles, ModelIoRoundtrip,
                         ::testing::Values(CrfProfile::kBanner,
                                           CrfProfile::kBannerChemDner));

TEST(ModelIo, RejectsGarbage) {
  std::stringstream buffer("not a model file");
  EXPECT_THROW(GraphNerModel::load(buffer), std::runtime_error);
}

class ModelIoMalformed : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(0.05, 3));
    const auto model = GraphNerModel::train(data.train, {}, GraphNerConfig{});
    std::stringstream buffer;
    model.save(buffer);
    saved_ = new std::string(buffer.str());
  }
  static void TearDownTestSuite() { delete saved_; }

  static void expect_load_error(const std::string& text,
                                const std::string& message_fragment) {
    std::stringstream in(text);
    try {
      GraphNerModel::load(in);
      FAIL() << "expected load to throw (" << message_fragment << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message_fragment), std::string::npos)
          << e.what();
    }
  }

  static const std::string* saved_;
};

const std::string* ModelIoMalformed::saved_ = nullptr;

TEST_F(ModelIoMalformed, RejectsTruncated) {
  expect_load_error(saved_->substr(0, saved_->size() / 2), "model file");
}

TEST_F(ModelIoMalformed, RejectsTruncationJustBeforeEndSentinel) {
  const std::size_t end = saved_->rfind("end");
  ASSERT_NE(end, std::string::npos);
  expect_load_error(saved_->substr(0, end), "expected 'end'");
}

TEST_F(ModelIoMalformed, RejectsVersionMismatch) {
  // The header is "graphner-model <version>"; force a future version.
  const std::size_t space = saved_->find(' ');
  ASSERT_NE(space, std::string::npos);
  const std::size_t newline = saved_->find('\n');
  std::string bumped = *saved_;
  bumped.replace(space + 1, newline - space - 1, "99");
  expect_load_error(bumped, "unsupported version 99");
}

TEST_F(ModelIoMalformed, RejectsMissingVersion) {
  expect_load_error("graphner-model x\n", "version");
}

TEST_F(ModelIoMalformed, RejectsLabelsBlockCorruption) {
  // The single-type model's labels block is "labels 3\nB\nI\nO\n".
  const std::size_t block = saved_->find("labels 3\nB\nI\nO\n");
  ASSERT_NE(block, std::string::npos);
  std::string dup = *saved_;
  dup.replace(block, 15, "labels 3\nB\nB\nO\n");
  expect_load_error(dup, "duplicate label \"B\"");

  std::string unclosed = *saved_;
  unclosed.replace(block, 15, "labels 3\nB\nI\nQ\n");
  expect_load_error(unclosed, "label set is not BIO-closed");

  // Cut the stream mid-table: the truncation check names the labels table.
  expect_load_error(saved_->substr(0, block + 13), "labels table truncated");
}

TEST_F(ModelIoMalformed, RejectsTrailingGarbage) {
  expect_load_error(*saved_ + "leftover bytes\n", "trailing garbage");
  // A second concatenated model is also trailing garbage.
  expect_load_error(*saved_ + *saved_, "trailing garbage");
}

TEST_F(ModelIoMalformed, TrailingWhitespaceIsFine) {
  std::stringstream in(*saved_ + "\n   \n");
  EXPECT_NO_THROW(GraphNerModel::load(in));
}

// --- zero-copy mmap format -------------------------------------------------

/// A temp path private to this process. ctest runs every TEST as its own
/// process, in parallel under -j, and each ModelIoMmap process rewrites its
/// fixture files; a shared name would let one process truncate a file that
/// another still has mapped.
std::string process_temp_path(const std::string& name) {
  return ::testing::TempDir() + "graphner_" + std::to_string(::getpid()) + "_" +
         name;
}

class ModelIoMmap : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new corpus::LabelledCorpus(
        corpus::generate_corpus(corpus::bc2gm_like_spec(0.05, 3)));
    model_ = new GraphNerModel(
        GraphNerModel::train(data_->train, {}, GraphNerConfig{}));
    path_ = new std::string(process_temp_path("model_io_mmap.gmm"));
    model_->save_mmap_file(*path_);
    std::ifstream in(*path_, std::ios::binary);
    ASSERT_TRUE(in);
    bytes_ = new std::string(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }
  static void TearDownTestSuite() {
    delete bytes_;
    std::remove(path_->c_str());
    delete path_;
    delete model_;
    delete data_;
  }

  /// Write `bytes` to a scratch file and expect load_mmap_file to reject
  /// it with a message containing `fragment` — one test per distinct
  /// corruption, one distinct message per rejection.
  static void expect_mmap_error(const std::string& bytes,
                                const std::string& fragment) {
    const std::string path = process_temp_path("model_io_corrupt.gmm");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      GraphNerModel::load_mmap_file(path);
      FAIL() << "expected mmap load to throw (" << fragment << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }

  /// Locate a section's payload [offset, size) via the section table.
  static std::pair<std::uint64_t, std::uint64_t> find_section(
      const std::string& bytes, std::string_view name) {
    std::uint32_t count = 0;
    std::memcpy(&count, &bytes[16], sizeof(count));  // header.section_count
    char padded[16] = {};
    std::memcpy(padded, name.data(), name.size());
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t entry = sizeof(model_format::Header) +
                                i * sizeof(model_format::SectionEntry);
      if (std::memcmp(&bytes[entry], padded, sizeof(padded)) != 0) continue;
      std::uint64_t off = 0, size = 0;
      std::memcpy(&off, &bytes[entry + 16], 8);
      std::memcpy(&size, &bytes[entry + 24], 8);
      return {off, size};
    }
    ADD_FAILURE() << "section '" << name << "' not found";
    return {0, 0};
  }

  /// Recompute header.payload_fingerprint over the (possibly mutated)
  /// payloads so a content corruption reaches its own dedicated check
  /// instead of tripping the fingerprint gate.
  static void patch_fingerprint(std::string& bytes) {
    std::uint32_t count = 0;
    std::memcpy(&count, &bytes[16], sizeof(count));
    std::uint64_t fp = model_format::kFnvOffsetBasis;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t entry = sizeof(model_format::Header) +
                                i * sizeof(model_format::SectionEntry);
      std::uint64_t off = 0, size = 0;
      std::memcpy(&off, &bytes[entry + 16], 8);
      std::memcpy(&size, &bytes[entry + 24], 8);
      fp = model_format::fnv1a(bytes.data() + off, size, fp);
    }
    std::memcpy(&bytes[24], &fp, 8);  // header.payload_fingerprint
  }

  /// Mutate the "labels" payload (same length) and re-fingerprint.
  static std::string with_labels_payload(const std::string& bytes,
                                         const std::string& payload) {
    const auto [off, size] = find_section(bytes, "labels");
    EXPECT_EQ(payload.size(), size) << "same-length mutation required";
    std::string corrupt = bytes;
    std::memcpy(&corrupt[off], payload.data(), payload.size());
    patch_fingerprint(corrupt);
    return corrupt;
  }

  static const corpus::LabelledCorpus* data_;
  static const GraphNerModel* model_;
  static const std::string* path_;
  static const std::string* bytes_;
};

const corpus::LabelledCorpus* ModelIoMmap::data_ = nullptr;
const GraphNerModel* ModelIoMmap::model_ = nullptr;
const std::string* ModelIoMmap::path_ = nullptr;
const std::string* ModelIoMmap::bytes_ = nullptr;

TEST_F(ModelIoMmap, RoundTripsDecodeFingerprintAndGoldenText) {
  const auto restored = GraphNerModel::load_mmap_file(*path_);
  EXPECT_TRUE(restored.weights_mapped());
  EXPECT_FALSE(model_->weights_mapped());
  EXPECT_EQ(restored.feature_count(), model_->feature_count());
  EXPECT_EQ(restored.fingerprint(), model_->fingerprint());
  EXPECT_NE(restored.fingerprint(), 0U);
  EXPECT_EQ(restored.decode_crf(data_->test), model_->decode_crf(data_->test));

  // Golden check: the mmap round trip must re-serialize to exactly the
  // bytes the text format writes — the two formats carry one model.
  std::stringstream text_original, text_restored;
  model_->save(text_original);
  restored.save(text_restored);
  EXPECT_EQ(text_original.str(), text_restored.str());
}

TEST_F(ModelIoMmap, TextLoadFingerprintsIdenticallyToMmap) {
  std::stringstream buffer;
  model_->save(buffer);
  const auto via_text = GraphNerModel::load(buffer);
  const auto via_mmap = GraphNerModel::load_mmap_file(*path_);
  EXPECT_EQ(via_text.fingerprint(), via_mmap.fingerprint());
}

TEST_F(ModelIoMmap, AutoLoaderSniffsBothFormats) {
  const auto mmap_loaded = GraphNerModel::load_auto_file(*path_);
  EXPECT_TRUE(mmap_loaded.weights_mapped());

  const std::string text_path = process_temp_path("model_io_text.gnm");
  model_->save_file(text_path);
  const auto text_loaded = GraphNerModel::load_auto_file(text_path);
  EXPECT_FALSE(text_loaded.weights_mapped());
  EXPECT_EQ(text_loaded.fingerprint(), mmap_loaded.fingerprint());
  std::remove(text_path.c_str());
}

TEST_F(ModelIoMmap, TwoMappingsOfOneFileShareTheFileNoHeapCopies) {
  // Both replicas borrow their weights straight out of a read-only
  // file-backed mapping of the same bytes (same file size mapped): the
  // kernel backs both with one page-cache copy, nothing is copied to
  // either heap.
  const auto a = GraphNerModel::load_mmap_file(*path_);
  const auto b = GraphNerModel::load_mmap_file(*path_);
  ASSERT_TRUE(a.weights_mapped());
  ASSERT_TRUE(b.weights_mapped());
  const auto [a_base, a_size] = a.mapped_region();
  const auto [b_base, b_size] = b.mapped_region();
  EXPECT_NE(a_base, nullptr);
  EXPECT_NE(b_base, nullptr);
  EXPECT_EQ(a_size, bytes_->size());
  EXPECT_EQ(b_size, bytes_->size());
  EXPECT_EQ(a.decode_crf(data_->test), b.decode_crf(data_->test));
}

TEST_F(ModelIoMmap, RejectsTruncatedHeader) {
  expect_mmap_error(bytes_->substr(0, 32), "truncated header");
}

TEST_F(ModelIoMmap, RejectsBadMagic) {
  std::string corrupt = *bytes_;
  corrupt[0] = 'X';
  expect_mmap_error(corrupt, "bad magic");
}

TEST_F(ModelIoMmap, RejectsByteOrderMismatch) {
  std::string corrupt = *bytes_;
  // endian_tag occupies header bytes [12, 16); reverse it.
  std::swap(corrupt[12], corrupt[15]);
  std::swap(corrupt[13], corrupt[14]);
  expect_mmap_error(corrupt, "byte-order mismatch");
}

TEST_F(ModelIoMmap, RejectsVersionMismatch) {
  std::string corrupt = *bytes_;
  const std::uint32_t future = 99;
  std::memcpy(&corrupt[8], &future, sizeof(future));  // header.version
  expect_mmap_error(corrupt, "unsupported version 99");
}

TEST_F(ModelIoMmap, RejectsTruncatedPayload) {
  expect_mmap_error(bytes_->substr(0, bytes_->size() - 8), "truncated (");
}

TEST_F(ModelIoMmap, RejectsTrailingGarbage) {
  expect_mmap_error(*bytes_ + "leftover", "trailing garbage");
}

TEST_F(ModelIoMmap, RejectsSectionTableOutOfBounds) {
  std::string corrupt = *bytes_;
  const std::uint32_t absurd = 1u << 24;
  std::memcpy(&corrupt[16], &absurd, sizeof(absurd));  // header.section_count
  expect_mmap_error(corrupt, "section table out of bounds");
}

TEST_F(ModelIoMmap, RejectsMisalignedSection) {
  std::string corrupt = *bytes_;
  // section[0].offset lives 16 bytes into the first SectionEntry.
  const std::size_t offset_field = sizeof(model_format::Header) + 16;
  std::uint64_t offset = 0;
  std::memcpy(&offset, &corrupt[offset_field], sizeof(offset));
  offset += 1;  // no longer a multiple of the recorded 64-byte alignment
  std::memcpy(&corrupt[offset_field], &offset, sizeof(offset));
  expect_mmap_error(corrupt, "misaligned section 'meta'");
}

TEST_F(ModelIoMmap, RejectsMissingRequiredSection) {
  std::string corrupt = *bytes_;
  // Rename "meta" in the section table; payload bytes are untouched, so
  // the fingerprint still matches and the section check itself fires.
  const std::size_t name_field = sizeof(model_format::Header);
  std::memcpy(&corrupt[name_field], "mete", 4);
  expect_mmap_error(corrupt, "missing required section");
}

TEST_F(ModelIoMmap, RejectsPayloadCorruption) {
  std::string corrupt = *bytes_;
  corrupt[corrupt.size() - 1] ^= 0x01;  // one bit in the last weight
  expect_mmap_error(corrupt, "payload fingerprint mismatch");
}

TEST_F(ModelIoMmap, RejectsRaggedWeightsSection) {
  // Shrink the weights section by one byte and re-fingerprint so the
  // not-a-multiple-of-8 check is what fires, not the corruption check.
  std::string corrupt = *bytes_;
  // weights is the last section; its entry is the last in the table.
  const std::size_t weights_entry =
      sizeof(model_format::Header) + 2 * sizeof(model_format::SectionEntry);
  std::uint64_t w_size = 0;
  std::memcpy(&w_size, &corrupt[weights_entry + 24], 8);
  w_size -= 1;
  corrupt.resize(corrupt.size() - 1);
  std::memcpy(&corrupt[weights_entry + 24], &w_size, 8);
  const std::uint64_t file_size = corrupt.size();
  std::memcpy(&corrupt[32], &file_size, 8);  // header.file_size
  patch_fingerprint(corrupt);
  expect_mmap_error(corrupt, "not a multiple of 8");
}

// --- labels section corruption (multi-entity label inventory) --------------
//
// The single-type labels payload is exactly "3\nB\nI\nO\n"; each test mutates
// it in place (same length, fingerprint re-patched) so the labels parser's
// own check fires, each with its distinct message.

TEST_F(ModelIoMmap, RejectsLabelsSectionTruncatedTable) {
  // Promise more labels than the payload holds.
  expect_mmap_error(with_labels_payload(*bytes_, "9\nB\nI\nO\n"),
                    "labels section truncated");
}

TEST_F(ModelIoMmap, RejectsLabelsSectionDuplicateLabel) {
  expect_mmap_error(with_labels_payload(*bytes_, "3\nB\nB\nO\n"),
                    "duplicate label \"B\"");
}

TEST_F(ModelIoMmap, RejectsLabelsSectionNotBioClosed) {
  // Last label must be O; a mutated tail breaks BIO closure.
  expect_mmap_error(with_labels_payload(*bytes_, "3\nB\nI\nQ\n"),
                    "label set is not BIO-closed");
}

}  // namespace
}  // namespace graphner::core
