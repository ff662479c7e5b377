// Inputs generated from the seed, the model configuration, the in-process
// tier, and the offline reference every response is checked against.
#include <sstream>
#include <unordered_set>

#include "perfbench/bench.hpp"
#include "src/corpus/generator.hpp"
#include "src/serve/protocol.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPoolItems = 20000;  ///< distinct cold sentences
constexpr std::size_t kHotItems = 64;
constexpr std::size_t kCanarySentences = 64;
constexpr std::size_t kLearnBatchSentences = 20;
constexpr std::size_t kLearnSeedSentences = 300;

/// Generate held-out sentences (with generator gold) from their own stream,
/// keeping only those whose normalized key is not in `seen`.
std::vector<Item> distinct_items(std::uint64_t stream_seed, std::size_t want,
                                 const char* id_prefix,
                                 std::unordered_set<std::string>& seen) {
  corpus::CorpusSpec spec = corpus::bc2gm_like_spec(1.0, stream_seed);
  spec.train_sentences = 0;
  spec.test_sentences = want + want / 4 + 64;
  const corpus::LabelledCorpus generated = corpus::generate_corpus(spec);
  std::vector<Item> items;
  items.reserve(want);
  for (const text::Sentence& source : generated.test) {
    if (items.size() == want) break;
    std::vector<std::string> tokens = source.tokens;
    serve::normalize_tokens(tokens);
    if (tokens.size() != source.tokens.size() || tokens.empty()) continue;
    if (!seen.insert(serve::sentence_key(tokens)).second) continue;
    Item item;
    item.sentence.id = id_prefix + std::to_string(items.size());
    item.sentence.tokens = std::move(tokens);
    item.gold = source.tags;
    item.line = item.sentence.id + '\t';
    for (std::size_t i = 0; i < item.sentence.tokens.size(); ++i)
      item.line += (i > 0 ? " " : "") + item.sentence.tokens[i];
    items.push_back(std::move(item));
  }
  if (items.size() != want)
    throw std::runtime_error("input generation: only " +
                             std::to_string(items.size()) + " distinct " +
                             id_prefix + " sentences");
  return items;
}

std::string sentence_lines(const std::vector<text::Sentence>& sentences,
                           std::size_t first, std::size_t count) {
  std::string out;
  for (std::size_t i = first; i < first + count; ++i) {
    for (std::size_t t = 0; t < sentences[i].tokens.size(); ++t)
      out += (t > 0 ? " " : "") + sentences[i].tokens[t];
    out += '\n';
  }
  return out;
}

}  // namespace

core::GraphNerConfig model_config() {
  // The BC2GM-like hyper-parameters the table benches use (BANNER profile).
  core::GraphNerConfig config;
  config.profile = core::CrfProfile::kBanner;
  config.alpha = 0.5;
  config.propagation = {1e-4, 1e-6, 1};
  return config;
}

Inputs make_inputs(std::uint64_t seed, std::size_t learn_batches) {
  Inputs in;
  in.corpus = corpus::generate_corpus(corpus::bc2gm_like_spec(1.0, seed));

  // Distinct streams per input family, all derived from the seed.
  std::unordered_set<std::string> seen;
  for (const auto& s : in.corpus.train) seen.insert(serve::sentence_key(s.tokens));
  in.hot = distinct_items(seed * 1000003ULL + 11, kHotItems, "h", seen);
  in.pool = distinct_items(seed * 1000003ULL + 23, kPoolItems, "c", seen);

  for (std::size_t i = 0; i < kCanarySentences && i < in.corpus.test.size(); ++i) {
    text::Sentence canary;
    canary.id = in.corpus.test[i].id;
    canary.tokens = in.corpus.test[i].tokens;
    in.canary.push_back(std::move(canary));
  }

  const corpus::CorpusSpec spec = corpus::bc2gm_like_spec(1.0, seed);
  const auto fresh = corpus::generate_unlabelled(
      spec, kLearnSeedSentences + learn_batches * kLearnBatchSentences,
      seed * 1000003ULL + 37);
  in.learn_seed = sentence_lines(fresh, 0, kLearnSeedSentences);
  for (std::size_t b = 0; b < learn_batches; ++b)
    in.learn_batches.push_back(sentence_lines(
        fresh, kLearnSeedSentences + b * kLearnBatchSentences, kLearnBatchSentences));
  return in;
}

// --- Tier ---------------------------------------------------------------------------

Tier::Tier(std::shared_ptr<const core::GraphNerModel> model,
           const std::vector<text::Sentence>& canary,
           const std::filesystem::path& wal_dir) {
  // graphner_router's flag defaults, plus --blend and the learn path
  // (--learn-wal-dir, --canary).
  router::RouterConfig config;
  config.replicas = 2;
  config.vnodes = 64;
  config.cache_enabled = true;
  config.cache.capacity = 4096;
  config.replica_service.workers = 0;  // = cores
  config.replica_service.batching.max_batch = 32;
  config.replica_service.batching.max_queue_depth = 1024;
  config.replica_service.batching.max_delay = std::chrono::microseconds(2000);
  config.replica_service.blend_decode = true;
  config.learn_enabled = true;
  config.learn_wal_dir = wal_dir.string();
  config.canary = canary;
  router_ = std::make_unique<router::Router>(std::move(model), config);

  serve::SocketServerConfig socket_config;
  socket_config.port = 0;  // ephemeral
  server_ = std::make_unique<serve::SocketServer>(*router_, socket_config);
  server_->start();
}

Tier::~Tier() {
  if (server_) server_->stop();
  if (router_) router_->stop();
}

// --- offline reference ----------------------------------------------------------------

std::string expected_line(const core::GraphNerModel& model, const Item& item,
                          crf::LinearChainCrf::Scratch& scratch,
                          features::EncodeScratch& encode) {
  serve::Request request;
  request.id = item.sentence.id;
  serve::TagResponse response;
  response.tags = model.decode_one_blended(item.sentence, scratch, encode);
  response.labels = std::make_shared<const text::LabelSet>(model.labels());
  return serve::format_response(request, response);
}

bool parse_tags(const std::string& line, std::vector<text::Tag>& tags) {
  tags.clear();
  const std::size_t first = line.find('\t');
  if (first == std::string::npos) return false;
  const std::size_t second = line.find('\t', first + 1);
  if (second == std::string::npos) return false;
  std::istringstream names(line.substr(second + 1));
  std::string name;
  while (names >> name) tags.push_back(text::parse_tag(name));
  return true;
}

namespace {

/// Entity spans (first, last) of a single-type BIO sequence; an I that
/// does not continue an entity starts one (the usual lenient reading).
std::vector<std::pair<std::size_t, std::size_t>> entity_spans(
    const std::vector<text::Tag>& tags) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  bool open = false;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (tags[i] == text::Tag::kB || (tags[i] == text::Tag::kI && !open)) {
      spans.push_back({i, i});
      open = true;
    } else if (tags[i] == text::Tag::kI) {
      spans.back().second = i;
    } else {
      open = false;
    }
  }
  return spans;
}

}  // namespace

void F1Counts::add(const std::vector<text::Tag>& gold,
                   const std::vector<text::Tag>& predicted) {
  const auto g = entity_spans(gold);
  const auto p = entity_spans(predicted);
  std::size_t matched = 0;
  for (const auto& span : p)
    if (std::find(g.begin(), g.end(), span) != g.end()) ++matched;
  tp += matched;
  fp += p.size() - matched;
  fn += g.size() - matched;
}

double F1Counts::f1() const noexcept {
  const double denom = 2.0 * static_cast<double>(tp) + static_cast<double>(fp + fn);
  return denom > 0.0 ? 2.0 * static_cast<double>(tp) / denom : 0.0;
}

}  // namespace perfbench
