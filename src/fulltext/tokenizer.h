#ifndef DOMINODB_FULLTEXT_TOKENIZER_H_
#define DOMINODB_FULLTEXT_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace dominodb {

/// Finds the next token of `text` at or after `*pos`: a maximal run of
/// alphanumeric characters, ASCII-lower-cased. Runs shorter than 2
/// characters are dropped (the classic minimum-word-length rule). Stores
/// the token in `*token`, reusing its buffer, and moves `*pos` past it;
/// false once the text is used up.
bool NextToken(std::string_view text, size_t* pos, std::string* token);

/// All of `text`'s tokens, by NextToken's rules.
std::vector<std::string> TokenizeText(std::string_view text);

}  // namespace dominodb

#endif  // DOMINODB_FULLTEXT_TOKENIZER_H_
