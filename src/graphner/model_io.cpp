// GraphNerModel persistence (text format, versioned header).
//
// A saved model carries everything Algorithm 1 needs at test time: the
// configuration, the ChemDNER embedding resources (Brown clusters +
// word2vec k-means assignments), the frozen feature index, the CRF
// weights, and the reference distributions. Loading reconstructs the
// feature extractor over the restored resources, so a loaded model decodes
// identically to the one that was saved (tests/test_model_io.cpp).
#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graphner/pipeline.hpp"
#include "src/util/fault.hpp"
#include "src/util/logging.hpp"

namespace graphner::core {
namespace {

constexpr const char* kMagic = "graphner-model";
// v2 appended an "end" sentinel so truncation after the last section and
// trailing garbage are both detectable; v3 adds the "labels" block (the
// model's BIO label inventory, validated through label_set_from_names at
// load). The constant lives on GraphNerModel so the mmap format's meta
// section shares it.
constexpr int kVersion = GraphNerModel::kTextFormatVersion;

void expect_token(std::istream& in, const std::string& expected) {
  std::string token;
  in >> token;
  if (token != expected)
    throw std::runtime_error("model file: expected '" + expected + "', got '" +
                             token + "'");
}

}  // namespace

void GraphNerModel::save(std::ostream& out) const {
  out.precision(17);
  out << kMagic << ' ' << kVersion << '\n';
  save_head(out);

  const auto weights = crf_->weights();
  out << "weights " << weights.size() << '\n';
  for (std::size_t i = 0; i < weights.size(); ++i)
    out << weights[i] << ((i + 1) % 8 == 0 ? '\n' : ' ');
  out << '\n';

  out << "reference\n";
  reference_->save(out);
  out << "end\n";
}

// Everything between the magic line and the weights. Shared with the mmap
// format's "meta" section, which stores these same text sections but keeps
// the weight doubles raw (model_mmap.cpp).
void GraphNerModel::save_head(std::ostream& out) const {
  out << "config " << static_cast<int>(config_.profile) << ' ' << config_.crf_order
      << ' ' << config_.alpha << '\n';
  // The model's BIO label inventory, one wire name per line in canonical
  // layout order (B_t, I_t pairs, O last). The loader revalidates through
  // label_set_from_names, so a corrupted table cannot silently build a
  // wrong-shaped state space.
  out << "labels " << config_.labels.num_labels() << '\n';
  for (const auto& name : config_.labels.names()) out << name << '\n';
  out << "propagation " << config_.propagation.mu << ' ' << config_.propagation.nu
      << ' ' << config_.propagation.iterations << '\n';
  out << "knn " << config_.knn.k << ' ' << config_.knn.max_posting_length << ' '
      << config_.knn.min_similarity << '\n';
  out << "vertex " << static_cast<int>(config_.vertex_features.representation) << ' '
      << config_.vertex_features.max_document_frequency << ' '
      << config_.vertex_features.selected_features.size() << '\n';
  for (const auto& name : config_.vertex_features.selected_features)
    out << name << '\n';

  out << "brown " << (brown_ ? 1 : 0) << '\n';
  if (brown_) brown_->save(out);

  out << "embclusters " << (embedding_clusters_ ? 1 : 0) << '\n';
  if (embedding_clusters_) {
    out << embedding_clusters_->k << ' ' << embedding_clusters_->assignment.size()
        << '\n';
    // Sorted, like every other table: the serialization is a function of
    // the model, not of unordered_map iteration order, so two equal models
    // (e.g. an interrupted-and-resumed training run vs an uninterrupted
    // one) produce byte-identical files.
    std::vector<std::pair<std::string, int>> entries(
        embedding_clusters_->assignment.begin(),
        embedding_clusters_->assignment.end());
    std::sort(entries.begin(), entries.end());
    for (const auto& [word, cluster] : entries)
      out << word << ' ' << cluster << '\n';
  }

  out << "gazetteer " << (gazetteer_ ? 1 : 0) << '\n';
  if (gazetteer_) gazetteer_->save(out);

  out << "features " << index_->size() << '\n';
  for (crf::FeatureIndex::Id id = 0; id < index_->size(); ++id)
    out << index_->name(id) << '\n';
}

GraphNerModel GraphNerModel::load(std::istream& in) {
  expect_token(in, kMagic);
  int version = 0;
  if (!(in >> version))
    throw std::runtime_error("model file: missing version number");
  if (version != kVersion)
    throw std::runtime_error("model file: unsupported version " +
                             std::to_string(version) + " (this build reads version " +
                             std::to_string(kVersion) + ")");

  GraphNerModel model;
  load_head(in, model);

  expect_token(in, "weights");
  std::size_t weight_count = 0;
  in >> weight_count;
  if (weight_count != model.crf_->num_parameters())
    throw std::runtime_error("model file: weight count mismatch");
  std::vector<double> weights(weight_count);
  for (auto& w : weights) in >> w;
  model.crf_->set_weights(weights);

  expect_token(in, "reference");
  model.reference_ = std::make_shared<ReferenceDistributions>(
      ReferenceDistributions::load(in));

  if (!in) throw std::runtime_error("model file: truncated");
  expect_token(in, "end");
  // Anything after the sentinel means the file is not what save() wrote —
  // most likely a corrupted download or two models concatenated.
  char c = 0;
  while (in.get(c)) {
    if (!std::isspace(static_cast<unsigned char>(c)))
      throw std::runtime_error(
          "model file: trailing garbage after the end marker");
  }
  model.compute_fingerprint();
  util::log_info("graphner: loaded ", profile_name(model.config_.profile),
                 " model, ", model.index_->size(), " features, ",
                 model.reference_->size(), " reference trigrams");
  return model;
}

// Parses what save_head wrote and rebuilds everything that hangs off it:
// the embedding resources, the feature extractor over them, the frozen
// feature index, and a zero-weight CRF sized to match (the caller supplies
// the weights — parsed text here, an mmap'd view in model_mmap.cpp).
void GraphNerModel::load_head(std::istream& in, GraphNerModel& model) {
  expect_token(in, "config");
  int profile = 0;
  in >> profile >> model.config_.crf_order >> model.config_.alpha;
  model.config_.profile = static_cast<CrfProfile>(profile);
  expect_token(in, "labels");
  std::size_t label_count = 0;
  if (!(in >> label_count))
    throw std::runtime_error("model file: missing label count");
  std::vector<std::string> label_names;
  label_names.reserve(label_count);
  for (std::size_t i = 0; i < label_count; ++i) {
    std::string name;
    if (!(in >> name))
      throw std::runtime_error("model file: labels table truncated (promises " +
                               std::to_string(label_count) + " labels, holds " +
                               std::to_string(i) + ")");
    label_names.push_back(std::move(name));
  }
  try {
    model.config_.labels = text::label_set_from_names(label_names);
  } catch (const std::invalid_argument& e) {
    // label_set_from_names throws invalid_argument with the distinct
    // "duplicate label ..." / "label set is not BIO-closed ..." messages;
    // re-throw in the loader's error type, message preserved.
    throw std::runtime_error("model file: " + std::string(e.what()));
  }
  expect_token(in, "propagation");
  in >> model.config_.propagation.mu >> model.config_.propagation.nu >>
      model.config_.propagation.iterations;
  expect_token(in, "knn");
  in >> model.config_.knn.k >> model.config_.knn.max_posting_length >>
      model.config_.knn.min_similarity;
  expect_token(in, "vertex");
  int representation = 0;
  std::size_t selected_count = 0;
  in >> representation >> model.config_.vertex_features.max_document_frequency >>
      selected_count;
  model.config_.vertex_features.representation =
      static_cast<graph::VertexRepresentation>(representation);
  for (std::size_t i = 0; i < selected_count; ++i) {
    std::string name;
    in >> name;
    model.config_.vertex_features.selected_features.insert(std::move(name));
  }

  expect_token(in, "brown");
  int has_brown = 0;
  in >> has_brown;
  if (has_brown != 0)
    model.brown_ = std::make_shared<embeddings::BrownClustering>(
        embeddings::BrownClustering::load(in));

  expect_token(in, "embclusters");
  int has_clusters = 0;
  in >> has_clusters;
  if (has_clusters != 0) {
    model.embedding_clusters_ = std::make_shared<embeddings::EmbeddingClusters>();
    std::size_t entries = 0;
    in >> model.embedding_clusters_->k >> entries;
    for (std::size_t i = 0; i < entries; ++i) {
      std::string word;
      int cluster = 0;
      in >> word >> cluster;
      model.embedding_clusters_->assignment[std::move(word)] = cluster;
    }
  }

  expect_token(in, "gazetteer");
  int has_gazetteer = 0;
  in >> has_gazetteer;
  if (has_gazetteer != 0)
    model.gazetteer_ = std::make_shared<features::Gazetteer>(
        features::Gazetteer::load(in));
  model.config_.gazetteer_features = has_gazetteer != 0;

  // Extractor over the restored resources.
  features::FeatureConfig feature_config;
  if (model.config_.profile == CrfProfile::kBannerChemDner) {
    feature_config.brown = model.brown_.get();
    feature_config.embedding_clusters = model.embedding_clusters_.get();
  }
  feature_config.gazetteer = model.gazetteer_.get();
  model.extractor_ = std::make_shared<features::FeatureExtractor>(feature_config);

  expect_token(in, "features");
  std::size_t feature_count = 0;
  in >> feature_count;
  model.index_ = std::make_shared<crf::FeatureIndex>();
  for (std::size_t i = 0; i < feature_count; ++i) {
    std::string name;
    in >> name;
    model.index_->intern(name);  // ids are insertion-ordered, so they match
  }
  model.index_->freeze();

  const crf::StateSpace space =
      model.config_.crf_order == 2
          ? crf::StateSpace::order2(model.config_.labels)
          : crf::StateSpace::order1(model.config_.labels);
  model.crf_ = std::make_shared<crf::LinearChainCrf>(space, model.index_->size());
}

void GraphNerModel::save_file(const std::string& path) const {
  util::atomic_save(path, [this](std::ostream& out) { save(out); });
}

GraphNerModel GraphNerModel::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read model " + path);
  return load(in);
}

}  // namespace graphner::core
