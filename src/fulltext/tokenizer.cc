#include "fulltext/tokenizer.h"

#include <cctype>

#include "base/string_util.h"

namespace dominodb {

namespace {

bool IsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

bool NextToken(std::string_view text, size_t* pos, std::string* token) {
  while (*pos < text.size()) {
    token->clear();
    while (*pos < text.size() && !IsTokenChar(text[*pos])) ++*pos;
    while (*pos < text.size() && IsTokenChar(text[*pos])) {
      token->push_back(AsciiToLower(text[(*pos)++]));
    }
    if (token->size() >= 2) return true;
  }
  return false;
}

std::vector<std::string> TokenizeText(std::string_view text) {
  std::vector<std::string> tokens;
  std::string token;
  size_t pos = 0;
  while (NextToken(text, &pos, &token)) tokens.push_back(token);
  return tokens;
}

}  // namespace dominodb
