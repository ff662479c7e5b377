#include "src/text/lemmatizer.hpp"

#include <cctype>

#include "src/util/strings.hpp"

namespace graphner::text {
namespace {

using util::ends_with;

[[nodiscard]] bool is_vowel(char c) noexcept {
  return c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u';
}

[[nodiscard]] bool has_vowel(std::string_view word) noexcept {
  for (char c : word)
    if (is_vowel(c)) return true;
  return false;
}

/// True when `stem` ends in a doubled consonant that the base form drops
/// (running -> run); 's' and 'l' stay doubled in the base form (express,
/// crossing, controlling...).
[[nodiscard]] bool drops_doubled_consonant(std::string_view stem) noexcept {
  return stem.size() >= 2 && stem[stem.size() - 1] == stem[stem.size() - 2] &&
         !is_vowel(stem.back()) && stem.back() != 's' && stem.back() != 'l';
}

/// Strip plural / verbal suffixes from an already-lowercased word, in place.
void strip_suffix(std::string& word) {
  const std::size_t n = word.size();
  // -ies -> -y  (studies -> study), guard length.
  if (n > 4 && ends_with(word, "ies")) {
    word.erase(n - 3);
    word += 'y';
    return;
  }
  // -sses -> -ss (classes -> class)
  if (n > 5 && ends_with(word, "sses")) {
    word.erase(n - 2);
    return;
  }
  // -xes/-ches/-shes -> strip "es"
  if (n > 4 && (ends_with(word, "xes") || ends_with(word, "ches") ||
                ends_with(word, "shes") || ends_with(word, "zes"))) {
    word.erase(n - 2);
    return;
  }
  // -s (but not -ss, -us, -is) -> strip
  if (n > 3 && word.back() == 's' && !ends_with(word, "ss") &&
      !ends_with(word, "us") && !ends_with(word, "is")) {
    word.pop_back();
    return;
  }
  // -ing with a vowel remaining (binding -> bind)
  if (n > 5 && ends_with(word, "ing") &&
      has_vowel(std::string_view(word).substr(0, n - 3))) {
    word.resize(n - 3);
    if (drops_doubled_consonant(word)) word.pop_back();
    return;
  }
  // -ed (expressed -> express, mutated -> mutate)
  if (n > 4 && ends_with(word, "ed") &&
      has_vowel(std::string_view(word).substr(0, n - 2))) {
    word.resize(n - 2);
    if (drops_doubled_consonant(word)) {
      word.pop_back();  // stopped -> stop
    } else if (!is_vowel(word.back()) && word.size() >= 2 &&
               is_vowel(word[word.size() - 2])) {
      word += 'e';  // mutated -> mutate
    }
  }
}

}  // namespace

void lemmatize_into(std::string_view token, std::string& out) {
  out.assign(token);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (!util::has_letter(out) || out.size() <= 2) return;
  strip_suffix(out);
}

std::string lemmatize(std::string_view token) {
  std::string out;
  lemmatize_into(token, out);
  return out;
}

}  // namespace graphner::text
