#include "src/features/extractor.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cctype>
#include <charconv>

#include "src/features/gazetteer.hpp"
#include "src/text/lemmatizer.hpp"
#include "src/util/serial.hpp"
#include "src/util/strings.hpp"

namespace graphner::features {
namespace {

[[nodiscard]] std::string_view length_bucket(std::size_t n) noexcept {
  if (n == 1) return "1";
  if (n == 2) return "2";
  if (n <= 4) return "3-4";
  if (n <= 6) return "5-6";
  return "7+";
}

/// Decimal text of a cluster id, in caller storage.
[[nodiscard]] std::string_view int_text(int value, std::array<char, 16>& buffer) noexcept {
  const auto result = std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  return {buffer.data(), static_cast<std::size_t>(result.ptr - buffer.data())};
}

[[nodiscard]] bool includes(Templates which, Templates part) noexcept {
  return (static_cast<unsigned>(which) & static_cast<unsigned>(part)) != 0;
}

}  // namespace

void TemplateScratch::lower(const text::Sentence& sentence, std::size_t lo,
                            std::size_t hi) {
  length = sentence.size();
  if (lowered.size() < length) lowered.resize(length);
  for (std::size_t p = lo; p < hi; ++p) {
    std::string& out = lowered[p];
    out.assign(sentence.tokens[p]);
    for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
}

bool is_roman_numeral(std::string_view token) noexcept {
  if (token.empty()) return false;
  for (char c : token) {
    switch (c) {
      case 'I': case 'V': case 'X': case 'L': case 'C': case 'D': case 'M':
        break;
      default:
        return false;
    }
  }
  return token.size() <= 4;  // gene contexts rarely exceed short numerals
}

bool is_greek_letter(std::string_view token) noexcept {
  static constexpr std::array<std::string_view, 12> kGreek = {
      "alpha", "beta",  "gamma", "delta", "epsilon", "zeta",
      "eta",   "theta", "kappa", "lambda", "sigma",  "omega"};
  const auto same_lowered = [&](std::string_view greek) {
    return std::equal(token.begin(), token.end(), greek.begin(), greek.end(),
                      [](char c, char g) {
                        return std::tolower(static_cast<unsigned char>(c)) == g;
                      });
  };
  return std::any_of(kGreek.begin(), kGreek.end(), same_lowered);
}

FeatureExtractor::FeatureExtractor(FeatureConfig config)
    : config_(std::move(config)), serial_(util::next_serial()) {
  const auto w = static_cast<long long>(config_.context_window);
  for (long long d = -w; d <= w; ++d)
    if (d != 0) context_names_.push_back("C[" + std::to_string(d) + "]=");
  for (std::size_t n = 1; n <= config_.max_affix_length; ++n) {
    prefix_names_.push_back("PRE" + std::to_string(n) + "=");
    suffix_names_.push_back("SUF" + std::to_string(n) + "=");
  }
}

void FeatureExtractor::for_each_feature_at(const text::Sentence& sentence,
                                           std::size_t position,
                                           TemplateScratch& scratch, FeatureSink sink,
                                           Templates which) const {
  assert(position < sentence.size());
  const bool local = includes(which, Templates::kLocal);
  const bool context = includes(which, Templates::kContext);
  const std::string& token = sentence.tokens[position];
  const auto pos = static_cast<long long>(position);
  const std::string& lowered = scratch.lowered_at(pos);
  std::string& name = scratch.name;
  // `value` never aliases `name`: it views the token, a lowered token, a
  // model table or scratch.word.
  const auto emit = [&](std::string_view prefix, std::string_view value) {
    name.assign(prefix);
    name.append(value);
    sink(position, name);
  };
  const auto flag = [&](bool on, std::string_view feature) {
    if (on) sink(position, feature);
  };

  if (local && config_.token_identity) {
    emit("W=", token);
    emit("WL=", lowered);
  }
  if (local && config_.lemmas) {
    text::lemmatize_into(lowered, scratch.word);
    emit("LEMMA=", scratch.word);
  }
  if (context && config_.context) {
    const auto w = static_cast<long long>(config_.context_window);
    std::size_t k = 0;
    for (long long d = -w; d <= w; ++d)
      if (d != 0) emit(context_names_[k++], scratch.lowered_at(pos + d));
  }
  if (context && config_.token_bigrams) {
    name.assign("BG[-1]=");
    name += scratch.lowered_at(pos - 1);
    name += '_';
    name += lowered;
    sink(position, name);
    name.assign("BG[+1]=");
    name += lowered;
    name += '_';
    name += scratch.lowered_at(pos + 1);
    sink(position, name);
  }
  if (local && config_.shapes) {
    name.assign("SHAPE=");
    util::append_word_shape(name, token);
    sink(position, name);
    name.assign("CSHAPE=");
    util::append_compressed_shape(name, token);
    sink(position, name);
  }
  if (local && config_.affixes) {
    const std::string_view view = lowered;
    for (std::size_t n = 1; n <= config_.max_affix_length && n < view.size(); ++n) {
      emit(prefix_names_[n - 1], view.substr(0, n));
      emit(suffix_names_[n - 1], view.substr(view.size() - n));
    }
  }
  if (local && config_.char_ngrams) {
    std::string& padded = scratch.word;
    padded.assign("^");
    padded += lowered;
    padded += '$';
    const std::string_view view = padded;
    for (std::size_t n = 2; n <= 3 && view.size() >= n; ++n)
      for (std::size_t i = 0; i + n <= view.size(); ++i)
        emit(n == 2 ? "CN2=" : "CN3=", view.substr(i, n));
  }
  if (local && config_.orthographic) {
    const bool digit = util::has_digit(token);
    const bool letter = util::has_letter(token);
    flag(util::is_all_caps(token), "ALLCAPS");
    flag(util::is_init_caps(token), "INITCAP");
    flag(util::is_all_digits(token), "ALLDIGITS");
    flag(digit && letter, "ALPHANUM");
    flag(digit, "HASDIGIT");
    flag(token.find('-') != std::string::npos, "HASDASH");
    flag(token.find('/') != std::string::npos, "HASSLASH");
    flag(!letter && !digit, "ISPUNCT");
    flag(token.size() == 1, "SINGLECHAR");
    flag(is_roman_numeral(token), "ROMAN");
    flag(is_greek_letter(token), "GREEK");
  }
  if (local && config_.length_bucket) emit("LEN=", length_bucket(token.size()));

  if (const auto* brown = config_.brown) {
    static constexpr std::array<std::pair<std::size_t, std::string_view>, 3> kPaths = {
        {{4, "BR4="}, {6, "BR6="}, {10, "BR10="}}};
    for (const auto& [n, prefix_name] : kPaths) {
      if (!local) break;
      const std::string_view prefix = brown->path_view(lowered).substr(0, n);
      if (!prefix.empty()) emit(prefix_name, prefix);
    }
    // Context Brown paths link unseen symbols to seen ones via neighbours.
    for (const long long d : {-1LL, 1LL}) {
      if (!context) break;
      const std::string_view prefix =
          brown->path_view(scratch.lowered_at(pos + d)).substr(0, 6);
      if (!prefix.empty()) emit(d < 0 ? "BRC[-1]=" : "BRC[1]=", prefix);
    }
  }
  if (const auto* clusters = config_.embedding_clusters) {
    std::array<char, 16> digits{};
    if (const int c = local ? clusters->cluster(lowered) : -1; c >= 0)
      emit("EMB=", int_text(c, digits));
    for (const long long d : {-1LL, 1LL}) {
      if (!context) break;
      const int cc = clusters->cluster(scratch.lowered_at(pos + d));
      if (cc >= 0) emit(d < 0 ? "EMBC[-1]=" : "EMBC[1]=", int_text(cc, digits));
    }
  }
}

void FeatureExtractor::for_each_feature(const text::Sentence& sentence,
                                        TemplateScratch& scratch, FeatureSink sink,
                                        Templates which) const {
  const std::size_t n = sentence.size();
  scratch.lower(sentence, 0, n);
  for (std::size_t i = 0; i < n; ++i) for_each_feature_at(sentence, i, scratch, sink, which);
  if (which == Templates::kLocal) return;

  if (config_.gazetteer != nullptr)
    config_.gazetteer->for_each_feature(
        std::span<const std::string>(scratch.lowered.data(), n), scratch.name,
        scratch.phrase, sink);

  if (config_.pos_tagger != nullptr && n > 0) {
    const auto pos = config_.pos_tagger->tag(sentence.tokens);
    std::string& name = scratch.name;
    for (std::size_t i = 0; i < n; ++i) {
      name.assign("POS=");
      name += pos[i];
      sink(i, name);
      name.assign("POS[-1]=");
      name += i > 0 ? std::string_view(pos[i - 1]) : std::string_view("<s>");
      sink(i, name);
      name.assign("POS[+1]=");
      name += i + 1 < n ? std::string_view(pos[i + 1]) : std::string_view("</s>");
      sink(i, name);
    }
  }
}

std::vector<TokenFeatures> FeatureExtractor::extract(
    const text::Sentence& sentence) const {
  std::vector<TokenFeatures> out(sentence.size());
  TemplateScratch scratch;
  for_each_feature(sentence, scratch, [&](std::size_t position, std::string_view name) {
    out[position].emplace_back(name);
  });
  return out;
}

TokenFeatures FeatureExtractor::extract_at(const text::Sentence& sentence,
                                           std::size_t position) const {
  assert(position < sentence.size());
  // Lowercase only the tokens the templates can reach from `position`.
  const std::size_t reach = std::max<std::size_t>(config_.context_window, 1);
  TemplateScratch scratch;
  scratch.lower(sentence, position > reach ? position - reach : 0,
                std::min(sentence.size(), position + reach + 1));
  TokenFeatures out;
  for_each_feature_at(sentence, position, scratch,
                      [&](std::size_t, std::string_view name) { out.emplace_back(name); },
                      Templates::kAll);
  return out;
}

}  // namespace graphner::features
