#include "src/features/gazetteer.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/text/bio.hpp"
#include "src/util/strings.hpp"

namespace graphner::features {

Gazetteer::Bank& Gazetteer::bank_for(std::string_view name) {
  const auto it = bank_index_.find(std::string(name));
  if (it != bank_index_.end()) return banks_[it->second];
  bank_index_.emplace(std::string(name), banks_.size());
  banks_.emplace_back();
  banks_.back().name = std::string(name);
  return banks_.back();
}

void Gazetteer::add_term(std::string_view bank,
                         const std::vector<std::string>& tokens) {
  if (tokens.empty()) return;
  Bank& b = bank_for(bank);
  std::string phrase;
  for (const auto& tok : tokens) {
    if (!phrase.empty()) phrase += ' ';
    phrase += util::to_lower(tok);
  }
  b.first_tokens.insert(util::to_lower(tokens.front()));
  b.max_tokens = std::max(b.max_tokens, tokens.size());
  if (b.phrases.insert(std::move(phrase)).second) ++num_terms_;
}

Gazetteer Gazetteer::from_labelled(const std::vector<text::Sentence>& sentences,
                                   const text::LabelSet& labels) {
  Gazetteer gaz;
  std::vector<std::string> mention;
  for (const auto& sentence : sentences) {
    if (!sentence.has_tags()) continue;
    for (const auto& span : text::decode_typed_bio(sentence.tags, labels)) {
      mention.assign(sentence.tokens.begin() + static_cast<long>(span.first),
                     sentence.tokens.begin() + static_cast<long>(span.last) + 1);
      const std::string_view bank = labels.is_single()
                                        ? std::string_view{"GENE"}
                                        : labels.entity_types()[span.type];
      gaz.add_term(bank, mention);
    }
  }
  return gaz;
}

std::vector<std::string> Gazetteer::bank_names() const {
  std::vector<std::string> names;
  names.reserve(banks_.size());
  for (const auto& b : banks_) names.push_back(b.name);
  std::sort(names.begin(), names.end());
  return names;
}

void Gazetteer::for_each_feature(std::span<const std::string> lowered,
                                 std::string& name, std::string& phrase,
                                 FeatureSink sink) const {
  const std::size_t n = lowered.size();
  for (const auto& bank : banks_) {
    for (std::size_t i = 0; i < n;) {
      if (bank.first_tokens.find(lowered[i]) == bank.first_tokens.end()) {
        ++i;
        continue;
      }
      // Longest match first: grow the candidate phrase to the cap, then
      // shrink a token at a time until a terminology hit (or give up on
      // this position).
      const std::size_t limit = std::min(bank.max_tokens, n - i);
      phrase.assign(lowered[i]);
      for (std::size_t len = 2; len <= limit; ++len) {
        phrase += ' ';
        phrase += lowered[i + len - 1];
      }
      std::size_t matched = limit;
      while (matched > 0 && bank.phrases.find(phrase) == bank.phrases.end()) {
        if (--matched > 0) phrase.resize(phrase.size() - lowered[i + matched].size() - 1);
      }
      if (matched == 0) {
        ++i;
        continue;
      }
      name.assign("GAZB=");
      name += bank.name;
      sink(i, name);
      name.assign("GAZI=");
      name += bank.name;
      for (std::size_t j = 1; j < matched; ++j) sink(i + j, name);
      i += matched;
    }
  }
}

void Gazetteer::annotate(const text::Sentence& sentence,
                         std::vector<TokenFeatures>& features) const {
  const std::size_t n = sentence.size();
  if (n == 0 || features.size() < n) return;
  std::vector<std::string> lowered;
  lowered.reserve(n);
  for (const auto& tok : sentence.tokens) lowered.push_back(util::to_lower(tok));
  std::string name;
  std::string phrase;
  for_each_feature(lowered, name, phrase, [&](std::size_t position, std::string_view feature) {
    features[position].emplace_back(feature);
  });
}

void Gazetteer::save(std::ostream& out) const {
  std::vector<const Bank*> ordered;
  ordered.reserve(banks_.size());
  for (const auto& b : banks_) ordered.push_back(&b);
  std::sort(ordered.begin(), ordered.end(),
            [](const Bank* a, const Bank* b) { return a->name < b->name; });

  out << "banks " << ordered.size() << '\n';
  for (const Bank* bank : ordered) {
    std::vector<std::string> phrases(bank->phrases.begin(), bank->phrases.end());
    std::sort(phrases.begin(), phrases.end());
    out << "bank " << bank->name << ' ' << phrases.size() << '\n';
    for (const auto& phrase : phrases) {
      const auto tokens = util::split_whitespace(phrase);
      out << tokens.size();
      for (const auto& tok : tokens) out << ' ' << tok;
      out << '\n';
    }
  }
}

Gazetteer Gazetteer::load(std::istream& in) {
  std::string token;
  if (!(in >> token) || token != "banks")
    throw std::runtime_error("gazetteer: expected 'banks', got '" + token + "'");
  std::size_t bank_count = 0;
  if (!(in >> bank_count)) throw std::runtime_error("gazetteer: missing bank count");

  Gazetteer gaz;
  std::vector<std::string> term;
  for (std::size_t b = 0; b < bank_count; ++b) {
    if (!(in >> token) || token != "bank")
      throw std::runtime_error("gazetteer: expected 'bank', got '" + token + "'");
    std::string name;
    std::size_t term_count = 0;
    if (!(in >> name >> term_count))
      throw std::runtime_error("gazetteer: truncated bank header");
    for (std::size_t t = 0; t < term_count; ++t) {
      std::size_t token_count = 0;
      if (!(in >> token_count) || token_count == 0)
        throw std::runtime_error("gazetteer: truncated term table in bank " +
                                 name);
      term.clear();
      for (std::size_t k = 0; k < token_count; ++k) {
        std::string tok;
        if (!(in >> tok))
          throw std::runtime_error("gazetteer: truncated term in bank " + name);
        term.push_back(std::move(tok));
      }
      gaz.add_term(name, term);
    }
  }
  return gaz;
}

}  // namespace graphner::features
