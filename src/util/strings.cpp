#include "src/util/strings.hpp"

#include <cctype>

namespace graphner::util {
namespace {

[[nodiscard]] bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
[[nodiscard]] bool is_digit(char c) noexcept {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}
[[nodiscard]] bool is_alpha(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0;
}
[[nodiscard]] bool is_upper(char c) noexcept {
  return std::isupper(static_cast<unsigned char>(c)) != 0;
}
[[nodiscard]] bool is_lower(char c) noexcept {
  return std::islower(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string to_upper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && is_space(text[b])) ++b;
  while (e > b && is_space(text[e - 1])) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool is_all_digits(std::string_view text) noexcept {
  if (text.empty()) return false;
  for (char c : text)
    if (!is_digit(c)) return false;
  return true;
}

bool is_all_caps(std::string_view text) noexcept {
  bool saw_letter = false;
  for (char c : text) {
    if (is_alpha(c)) {
      if (!is_upper(c)) return false;
      saw_letter = true;
    }
  }
  return saw_letter;
}

bool is_init_caps(std::string_view text) noexcept {
  if (text.empty() || !is_upper(text[0])) return false;
  for (std::size_t i = 1; i < text.size(); ++i)
    if (!is_lower(text[i])) return false;
  return true;
}

bool has_digit(std::string_view text) noexcept {
  for (char c : text)
    if (is_digit(c)) return true;
  return false;
}

bool has_letter(std::string_view text) noexcept {
  for (char c : text)
    if (is_alpha(c)) return true;
  return false;
}

bool has_punct(std::string_view text) noexcept {
  for (char c : text)
    if (!is_alpha(c) && !is_digit(c) && !is_space(c)) return true;
  return false;
}

namespace {

[[nodiscard]] char shape_class(char c) noexcept {
  if (is_upper(c)) return 'A';
  if (is_lower(c)) return 'a';
  if (is_digit(c)) return '0';
  return '_';
}

}  // namespace

void append_word_shape(std::string& out, std::string_view text) {
  for (char c : text) out += shape_class(c);
}

void append_compressed_shape(std::string& out, std::string_view text) {
  char last = '\0';
  for (char c : text) {
    const char cls = shape_class(c);
    if (cls != last) out += cls;
    last = cls;
  }
}

std::string word_shape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_word_shape(out, text);
  return out;
}

std::string compressed_shape(std::string_view text) {
  std::string out;
  append_compressed_shape(out, text);
  return out;
}

std::string replace_all(std::string text, std::string_view from, std::string_view to) {
  if (from.empty()) return text;
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

}  // namespace graphner::util
