// Zero-copy mmap model format (DESIGN.md §11, layout in model_format.hpp).
//
// save_mmap_file writes the same metadata the text format carries (via
// save_head / ReferenceDistributions::save) into a "meta" section and the
// weight table as raw doubles into an aligned "weights" section.
// load_mmap_file maps the file read-only and hands the CRF a *view* into
// the mapping (LinearChainCrf::set_weights_view), so N replicas mapping
// the same file share one page-cache copy of the weights and cold-start
// skips parsing the dominant weight text.
//
// Input hardening mirrors the text loader's trailing-garbage checks:
// every rejection below has a distinct message, and nothing in the file is
// trusted before the header, the section table, and the payload
// fingerprint have all been validated (tests/test_model_io.cpp corrupts
// each in turn).
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graphner/model_format.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/util/fault.hpp"
#include "src/util/logging.hpp"

namespace graphner::core {
namespace {

namespace fmt = model_format;

void expect_meta_token(std::istream& in, const std::string& expected) {
  std::string token;
  in >> token;
  if (token != expected)
    throw std::runtime_error("mmap model meta: expected '" + expected +
                             "', got '" + token + "'");
}

void write_padding(std::ostream& out, std::uint64_t from, std::uint64_t to) {
  static constexpr char kZeros[fmt::kAlign] = {};
  while (from < to) {
    const std::uint64_t chunk = std::min<std::uint64_t>(to - from, fmt::kAlign);
    out.write(kZeros, static_cast<std::streamsize>(chunk));
    from += chunk;
  }
}

struct MappedFile {
  void* base = nullptr;
  std::size_t size = 0;
};

/// mmap `path` read-only. The returned shared_ptr owns the mapping (the
/// deleter munmaps), which is what GraphNerModel::mapping_ holds.
std::shared_ptr<MappedFile> map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error("cannot open mmap model " + path + ": " +
                             std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot stat mmap model " + path + ": " +
                             std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < sizeof(fmt::Header)) {
    ::close(fd);
    throw std::runtime_error("mmap model file: truncated header (" +
                             std::to_string(size) + " bytes, need " +
                             std::to_string(sizeof(fmt::Header)) + ")");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping survives the close; the fd is only needed to create it.
  ::close(fd);
  if (base == MAP_FAILED)
    throw std::runtime_error("mmap failed for model " + path + ": " +
                             std::strerror(errno));
  auto* mapped = new MappedFile{base, size};
  return std::shared_ptr<MappedFile>(mapped, [](MappedFile* m) {
    ::munmap(m->base, m->size);
    delete m;
  });
}

}  // namespace

void GraphNerModel::compute_fingerprint() {
  // Identity of the decode-relevant parameters: the raw weight bytes plus
  // the table shape. %.17g round-trips doubles exactly, so a text-saved /
  // text-loaded model fingerprints identically to the mmap'd original.
  const auto w = crf_->weights();
  std::uint64_t hash = fmt::fnv1a(w.data(), w.size() * sizeof(double));
  const std::uint64_t shape[2] = {static_cast<std::uint64_t>(w.size()),
                                  static_cast<std::uint64_t>(index_->size())};
  fingerprint_ = fmt::fnv1a(shape, sizeof(shape), hash);
  // Online-learned forks decode differently under identical weights, so
  // their identity must differ too — otherwise the decode cache would keep
  // serving the base model's tags after a #LEARN swap.
  if (learned_) {
    const std::uint64_t learned_hash = learned_->content_hash();
    fingerprint_ = fmt::fnv1a(&learned_hash, sizeof(learned_hash), fingerprint_);
  }
}

bool GraphNerModel::weights_mapped() const noexcept {
  return crf_ != nullptr && crf_->weights_borrowed();
}

void GraphNerModel::save_mmap_file(const std::string& path) const {
  // "meta" carries the exact text the text format would write, minus the
  // weight numerals: magic line, save_head sections, reference table, end
  // sentinel. Loading re-uses the same parsers, so the two formats cannot
  // drift.
  std::ostringstream meta_out;
  meta_out.precision(17);
  meta_out << "graphner-model " << kTextFormatVersion << '\n';
  save_head(meta_out);
  meta_out << "reference\n";
  reference_->save(meta_out);
  meta_out << "end\n";
  const std::string meta = meta_out.str();

  // Dedicated "labels" section: the label inventory stands alone so a
  // reader (or operator with xxd) can learn a model's tag set without
  // parsing the whole meta text. The loader validates it independently
  // and cross-checks it against the meta config.
  std::ostringstream labels_out;
  labels_out << config_.labels.num_labels() << '\n';
  for (const auto& name : config_.labels.names()) labels_out << name << '\n';
  const std::string labels = labels_out.str();

  const auto weights = crf_->weights();
  const std::uint64_t weights_bytes = weights.size() * sizeof(double);

  const std::uint64_t table_end =
      sizeof(fmt::Header) + 3 * sizeof(fmt::SectionEntry);
  const std::uint64_t meta_off = fmt::align_up(table_end, fmt::kAlign);
  const std::uint64_t labels_off =
      fmt::align_up(meta_off + meta.size(), fmt::kAlign);
  const std::uint64_t weights_off =
      fmt::align_up(labels_off + labels.size(), fmt::kAlign);

  fmt::Header header{};
  std::memcpy(header.magic, fmt::kMagic, sizeof(header.magic));
  header.version = fmt::kVersion;
  header.endian_tag = fmt::kEndianTag;
  header.section_count = 3;
  header.payload_fingerprint = fmt::fnv1a(
      weights.data(), weights_bytes,
      fmt::fnv1a(labels.data(), labels.size(),
                 fmt::fnv1a(meta.data(), meta.size())));
  header.file_size = weights_off + weights_bytes;

  fmt::SectionEntry sections[3] = {};
  std::memcpy(sections[0].name, fmt::kSectionMeta.data(),
              fmt::kSectionMeta.size());
  sections[0].offset = meta_off;
  sections[0].size = meta.size();
  sections[0].align = fmt::kAlign;
  std::memcpy(sections[1].name, fmt::kSectionLabels.data(),
              fmt::kSectionLabels.size());
  sections[1].offset = labels_off;
  sections[1].size = labels.size();
  sections[1].align = fmt::kAlign;
  std::memcpy(sections[2].name, fmt::kSectionWeights.data(),
              fmt::kSectionWeights.size());
  sections[2].offset = weights_off;
  sections[2].size = weights_bytes;
  sections[2].align = fmt::kAlign;

  util::atomic_save(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(sections), sizeof(sections));
    write_padding(out, table_end, meta_off);
    out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
    write_padding(out, meta_off + meta.size(), labels_off);
    out.write(labels.data(), static_cast<std::streamsize>(labels.size()));
    write_padding(out, labels_off + labels.size(), weights_off);
    out.write(reinterpret_cast<const char*>(weights.data()),
              static_cast<std::streamsize>(weights_bytes));
  });
}

GraphNerModel GraphNerModel::load_mmap_file(const std::string& path) {
  auto mapped = map_file(path);
  const auto* bytes = static_cast<const unsigned char*>(mapped->base);
  const std::size_t file_size = mapped->size;

  fmt::Header header{};
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, fmt::kMagic, sizeof(header.magic)) != 0)
    throw std::runtime_error("mmap model file: bad magic (not a " +
                             std::string(fmt::kMagic, sizeof(fmt::kMagic)) +
                             " file)");
  if (header.endian_tag != fmt::kEndianTag)
    throw std::runtime_error(
        "mmap model file: byte-order mismatch (written on a machine of the "
        "opposite endianness)");
  if (header.version != fmt::kVersion)
    throw std::runtime_error("mmap model file: unsupported version " +
                             std::to_string(header.version) +
                             " (this build reads version " +
                             std::to_string(fmt::kVersion) + ")");
  if (file_size < header.file_size)
    throw std::runtime_error(
        "mmap model file: truncated (" + std::to_string(file_size) +
        " bytes on disk, header promises " + std::to_string(header.file_size) +
        ")");
  if (file_size > header.file_size)
    throw std::runtime_error(
        "mmap model file: trailing garbage after the last section (" +
        std::to_string(file_size - header.file_size) + " extra bytes)");

  const std::uint64_t table_end =
      sizeof(fmt::Header) +
      static_cast<std::uint64_t>(header.section_count) *
          sizeof(fmt::SectionEntry);
  if (header.section_count == 0 || table_end > file_size)
    throw std::runtime_error("mmap model file: section table out of bounds (" +
                             std::to_string(header.section_count) +
                             " sections)");

  std::vector<fmt::SectionEntry> sections(header.section_count);
  std::memcpy(sections.data(), bytes + sizeof(fmt::Header),
              sections.size() * sizeof(fmt::SectionEntry));

  const fmt::SectionEntry* meta_section = nullptr;
  const fmt::SectionEntry* labels_section = nullptr;
  const fmt::SectionEntry* weights_section = nullptr;
  std::uint64_t fingerprint = fmt::kFnvOffsetBasis;
  for (const auto& section : sections) {
    const std::string name(section.name_view());
    if (section.align == 0 || section.offset % section.align != 0)
      throw std::runtime_error("mmap model file: misaligned section '" + name +
                               "' (offset " + std::to_string(section.offset) +
                               ", align " + std::to_string(section.align) +
                               ")");
    if (section.offset < table_end || section.offset > file_size ||
        section.size > file_size - section.offset)
      throw std::runtime_error("mmap model file: section '" + name +
                               "' out of bounds");
    fingerprint = fmt::fnv1a(bytes + section.offset, section.size, fingerprint);
    if (name == fmt::kSectionMeta) meta_section = &section;
    if (name == fmt::kSectionLabels) labels_section = &section;
    if (name == fmt::kSectionWeights) weights_section = &section;
  }
  if (meta_section == nullptr || labels_section == nullptr ||
      weights_section == nullptr)
    throw std::runtime_error(
        "mmap model file: missing required section (need 'meta', 'labels' "
        "and 'weights')");
  if (fingerprint != header.payload_fingerprint)
    throw std::runtime_error(
        "mmap model file: payload fingerprint mismatch (file corrupted)");
  if (weights_section->size % sizeof(double) != 0)
    throw std::runtime_error(
        "mmap model file: weights section size is not a multiple of 8");

  // The payloads are now fingerprint-trusted. Validate the labels section
  // first: it is what the decode structures will be shaped by, so it gets
  // its own structural checks before the meta text is even parsed.
  std::istringstream labels_in(std::string(
      reinterpret_cast<const char*>(bytes + labels_section->offset),
      labels_section->size));
  std::size_t label_count = 0;
  if (!(labels_in >> label_count))
    throw std::runtime_error("mmap model file: labels section missing count");
  std::vector<std::string> label_names;
  label_names.reserve(label_count);
  for (std::size_t i = 0; i < label_count; ++i) {
    std::string name;
    if (!(labels_in >> name))
      throw std::runtime_error(
          "mmap model file: labels section truncated (promises " +
          std::to_string(label_count) + " labels, holds " + std::to_string(i) +
          ")");
    label_names.push_back(std::move(name));
  }
  text::LabelSet file_labels;
  try {
    file_labels = text::label_set_from_names(label_names);
  } catch (const std::invalid_argument& e) {
    // Preserve the distinct "duplicate label ..." / "label set is not
    // BIO-closed ..." messages in the loader's error type.
    throw std::runtime_error("mmap model file: " + std::string(e.what()));
  }

  // Parse meta with the text-format parsers.
  std::istringstream meta_in(std::string(
      reinterpret_cast<const char*>(bytes + meta_section->offset),
      meta_section->size));
  expect_meta_token(meta_in, "graphner-model");
  int text_version = 0;
  meta_in >> text_version;
  if (text_version != kTextFormatVersion)
    throw std::runtime_error("mmap model meta: unsupported text version " +
                             std::to_string(text_version));

  GraphNerModel model;
  load_head(meta_in, model);
  if (!(model.config_.labels == file_labels))
    throw std::runtime_error(
        "mmap model file: labels section disagrees with model metadata");
  expect_meta_token(meta_in, "reference");
  model.reference_ = std::make_shared<ReferenceDistributions>(
      ReferenceDistributions::load(meta_in));
  if (!meta_in) throw std::runtime_error("mmap model meta: truncated");
  expect_meta_token(meta_in, "end");

  const std::size_t weight_count = weights_section->size / sizeof(double);
  if (weight_count != model.crf_->num_parameters())
    throw std::runtime_error(
        "mmap model file: weight count mismatch (" +
        std::to_string(weight_count) + " in file, model needs " +
        std::to_string(model.crf_->num_parameters()) + ")");

  // Zero-copy: the CRF reads weights straight out of the mapping. The
  // section offset is 64-byte aligned within a page-aligned mapping, so
  // the pointer is valid for double access.
  const auto* weight_base =
      reinterpret_cast<const double*>(bytes + weights_section->offset);
  model.crf_->set_weights_view({weight_base, weight_count});
  model.mapping_ = std::move(mapped);
  model.map_base_ = bytes;
  model.map_size_ = file_size;
  model.compute_fingerprint();

  util::log_info("graphner: mmap-loaded ", profile_name(model.config_.profile),
                 " model, ", model.index_->size(), " features, ",
                 weight_count, " mapped weights");
  return model;
}

GraphNerModel GraphNerModel::load_auto_file(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error("cannot read model " + path);
  char magic[sizeof(fmt::kMagic)] = {};
  probe.read(magic, sizeof(magic));
  probe.close();
  if (std::memcmp(magic, fmt::kMagic, sizeof(magic)) == 0)
    return load_mmap_file(path);
  return load_file(path);
}

}  // namespace graphner::core
