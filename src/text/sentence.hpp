// Sentence / document model shared by every stage of the pipeline.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/text/tag.hpp"

namespace graphner::text {

/// Inclusive token index range [first, last] of a mention within a sentence.
struct TokenSpan {
  std::size_t first = 0;
  std::size_t last = 0;

  [[nodiscard]] std::size_t length() const noexcept { return last - first + 1; }
  friend bool operator==(const TokenSpan&, const TokenSpan&) = default;
  friend auto operator<=>(const TokenSpan&, const TokenSpan&) = default;
};

/// BC2GM-style character span: offsets into the sentence text with all
/// whitespace removed; `last` is inclusive (matches the shared-task format).
struct CharSpan {
  std::size_t first = 0;
  std::size_t last = 0;

  friend bool operator==(const CharSpan&, const CharSpan&) = default;
  friend auto operator<=>(const CharSpan&, const CharSpan&) = default;
};

/// A tokenized sentence with optional gold BIO tags.
struct Sentence {
  std::string id;                   ///< stable sentence identifier
  std::vector<std::string> tokens;  ///< surface forms
  std::vector<Tag> tags;            ///< gold/predicted tags (may be empty)

  [[nodiscard]] std::size_t size() const noexcept { return tokens.size(); }
  [[nodiscard]] bool has_tags() const noexcept { return tags.size() == tokens.size(); }

  /// Space-joined surface text.
  [[nodiscard]] std::string text() const;

  /// Space-free character offset of the first char of token `i` (BC2GM
  /// convention: whitespace does not count).
  [[nodiscard]] std::size_t char_offset(std::size_t token) const;

  /// Convert a token span to a BC2GM char span.
  [[nodiscard]] CharSpan to_char_span(const TokenSpan& span) const;

  /// Surface text of a token span (space-joined).
  [[nodiscard]] std::string span_text(const TokenSpan& span) const;
};

/// A document is an ordered list of sentences (one for abstracts-style data,
/// many for AML-style full-text articles).
struct Document {
  std::string id;
  std::vector<Sentence> sentences;

  [[nodiscard]] std::size_t token_count() const noexcept;
};

}  // namespace graphner::text
