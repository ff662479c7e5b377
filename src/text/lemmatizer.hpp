// Rule-based English lemmatizer.
//
// A light-weight stand-in for the Dragon-toolkit lemmatizer BANNER uses:
// lowercases and strips common inflectional suffixes with simple guards.
// Used for the "Lexical-features" vertex representation (lemmas in a
// window of 5) and BANNER's lemma features.
#pragma once

#include <string>
#include <string_view>

namespace graphner::text {

/// Lemmatize one token (ASCII; non-alphabetic tokens pass through lowercased).
[[nodiscard]] std::string lemmatize(std::string_view token);

/// lemmatize() into caller storage: `out` is overwritten, and allocates
/// nothing once its capacity covers the token.
void lemmatize_into(std::string_view token, std::string& out);

}  // namespace graphner::text
