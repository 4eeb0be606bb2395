#include "text/tokenizer.h"

#include <cctype>

namespace fts {

namespace {
bool IsTokenChar(char c) { return std::isalnum(static_cast<unsigned char>(c)); }

bool IsSentenceBoundary(char c) { return c == '.' || c == '!' || c == '?'; }
}  // namespace

std::vector<RawToken> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<RawToken> out;
  uint32_t offset = 0;
  uint32_t sentence = 0;
  uint32_t paragraph = 0;
  bool token_seen_in_sentence = false;
  bool token_seen_in_paragraph = false;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (IsTokenChar(c)) {
      size_t start = i;
      while (i < n && IsTokenChar(text[i])) ++i;
      out.push_back(RawToken{Normalize(text.substr(start, i - start)),
                             PositionInfo{offset, sentence, paragraph}});
      ++offset;
      token_seen_in_sentence = true;
      token_seen_in_paragraph = true;
      continue;
    }
    if (IsSentenceBoundary(c) && token_seen_in_sentence) {
      ++sentence;
      token_seen_in_sentence = false;
    }
    // A blank line (two newlines separated only by spaces/tabs) starts a new
    // paragraph; a paragraph break also breaks the sentence.
    if (c == '\n') {
      size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t' || text[j] == '\r')) ++j;
      if (j < n && text[j] == '\n' && token_seen_in_paragraph) {
        ++paragraph;
        token_seen_in_paragraph = false;
        if (token_seen_in_sentence) {
          ++sentence;
          token_seen_in_sentence = false;
        }
        i = j;
      }
    }
    ++i;
  }
  return out;
}

std::string Tokenizer::Normalize(std::string_view token) const {
  std::string out(token);
  for (char& ch : out) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return out;
}

}  // namespace fts
