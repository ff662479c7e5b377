// Small string helpers used across text processing and feature extraction.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace graphner::util {

/// Hashes exactly as std::hash<std::string>, and is transparent: an
/// unordered container declared with it and std::equal_to<> finds string
/// keys by std::string_view without building a std::string.
struct StringHash : std::hash<std::string_view> {
  using is_transparent = void;
};

/// Split on a single delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

/// Split on runs of whitespace; drops empty fields.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view text);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// ASCII lowercase copy.
[[nodiscard]] std::string to_lower(std::string_view text);

/// ASCII uppercase copy.
[[nodiscard]] std::string to_upper(std::string_view text);

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// True if every character is an ASCII digit (and text non-empty).
[[nodiscard]] bool is_all_digits(std::string_view text) noexcept;

/// True if every alphabetic character is uppercase and at least one exists.
[[nodiscard]] bool is_all_caps(std::string_view text) noexcept;

/// True if first char uppercase, rest lowercase letters.
[[nodiscard]] bool is_init_caps(std::string_view text) noexcept;

[[nodiscard]] bool has_digit(std::string_view text) noexcept;
[[nodiscard]] bool has_letter(std::string_view text) noexcept;
[[nodiscard]] bool has_punct(std::string_view text) noexcept;

/// Word shape: letters -> A/a, digits -> 0, other -> _ ("Abc-12" -> "Aaa_00").
[[nodiscard]] std::string word_shape(std::string_view text);

/// Compressed shape with repeated classes collapsed ("Abc-12" -> "Aa_0").
[[nodiscard]] std::string compressed_shape(std::string_view text);

/// word_shape / compressed_shape appended to `out` (no temporary string).
void append_word_shape(std::string& out, std::string_view text);
void append_compressed_shape(std::string& out, std::string_view text);

/// Replace every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string text, std::string_view from,
                                      std::string_view to);

}  // namespace graphner::util
