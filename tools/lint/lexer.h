// gvm-lint: C++ tokenizer.
//
// The analyzer does not preprocess: each file is lexed as-written, with
// preprocessor directives skipped line-wise and comments mined for lint
// directives.  That is deliberate — the invariants gvm-lint enforces live in
// the project's own idioms (guard declarations, annotation macros, call
// shapes), which survive textual analysis because the tree's style is
// machine-enforced elsewhere (clang-format-ish uniformity, one declaration
// per line).
#ifndef GVM_TOOLS_LINT_LEXER_H_
#define GVM_TOOLS_LINT_LEXER_H_

#include <cctype>
#include <map>
#include <string>
#include <vector>

namespace gvmlint {

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct, kEnd };
  Kind kind = kEnd;
  std::string text;
  int line = 0;
};

// Per-line lint directives mined from comments.
struct LineNotes {
  // `// gvm-lint: allow(rule-id[, rule-id...])[: reason]` — suppress the named
  // rules on this line (and, for a declaration, on the declared entity).
  std::vector<std::string> allows;
  // `// EXPECT: rule-id` — selftest fixtures: a diagnostic for rule-id must
  // fire on exactly this line.
  std::vector<std::string> expects;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::map<int, LineNotes> notes;  // line -> directives
  // `// gvm-lint-pretend-path: src/...` — fixtures use this to opt into
  // path-scoped rules (kRetry containment, annotation coverage).
  std::string pretend_path;
};

inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Two-character punctuators lexed as one token.  `::`, `->` matter for name
// chains; the comparison/shift group keeps template-argument scans from
// tripping over `<<` and `>>`.
inline bool IsTwoCharPunct(char a, char b) {
  static const char* kPairs[] = {"::", "->", "<<", ">>", "<=", ">=", "==",
                                 "!=", "&&", "||", "+=", "-=", "*=", "/=",
                                 "|=", "&=", "^=", "++", "--"};
  for (const char* p : kPairs) {
    if (p[0] == a && p[1] == b) return true;
  }
  return false;
}

inline void MineComment(const std::string& comment, int line, LexedFile* out) {
  auto grab_list = [&](size_t at, std::vector<std::string>* into) {
    size_t open = comment.find('(', at);
    if (open == std::string::npos) return;
    size_t close = comment.find(')', open);
    if (close == std::string::npos) return;
    std::string inner = comment.substr(open + 1, close - open - 1);
    std::string cur;
    for (char c : inner) {
      if (c == ',') {
        if (!cur.empty()) into->push_back(cur);
        cur.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        cur += c;
      }
    }
    if (!cur.empty()) into->push_back(cur);
  };
  size_t at = comment.find("gvm-lint:");
  if (at != std::string::npos) {
    size_t allow = comment.find("allow", at);
    if (allow != std::string::npos) {
      grab_list(allow, &out->notes[line].allows);
    }
  }
  at = comment.find("gvm-lint-pretend-path:");
  if (at != std::string::npos) {
    size_t start = at + sizeof("gvm-lint-pretend-path:") - 1;
    while (start < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[start]))) {
      ++start;
    }
    size_t end = start;
    while (end < comment.size() &&
           !std::isspace(static_cast<unsigned char>(comment[end]))) {
      ++end;
    }
    out->pretend_path = comment.substr(start, end - start);
  }
  at = comment.find("EXPECT:");
  if (at != std::string::npos) {
    size_t start = at + sizeof("EXPECT:") - 1;
    while (start < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[start]))) {
      ++start;
    }
    size_t end = start;
    while (end < comment.size() &&
           !std::isspace(static_cast<unsigned char>(comment[end]))) {
      ++end;
    }
    if (end > start) {
      out->notes[line].expects.push_back(comment.substr(start, end - start));
    }
  }
}

inline LexedFile Lex(const std::string& src) {
  LexedFile out;
  size_t i = 0;
  int line = 1;
  const size_t n = src.size();
  auto peek = [&](size_t k) -> char { return i + k < n ? src[i + k] : '\0'; };
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip the (continuation-joined) logical line.
    if (c == '#') {
      while (i < n) {
        if (src[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      MineComment(src.substr(start, i - start), line, &out);
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      size_t start = i;
      int start_line = line;
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = i < n ? i + 2 : n;
      MineComment(src.substr(start, i - start), start_line, &out);
      continue;
    }
    // Raw string literal.
    if (c == 'R' && peek(1) == '"') {
      size_t delim_start = i + 2;
      size_t paren = src.find('(', delim_start);
      if (paren != std::string::npos) {
        std::string closer = ")" + src.substr(delim_start, paren - delim_start) + "\"";
        size_t end = src.find(closer, paren + 1);
        size_t stop = end == std::string::npos ? n : end + closer.size();
        for (size_t k = i; k < stop; ++k) {
          if (src[k] == '\n') ++line;
        }
        out.tokens.push_back({Token::kString, "R\"...\"", line});
        i = stop;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      size_t start = i;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\') ++i;
        if (i < n && src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;
      out.tokens.push_back({Token::kString, src.substr(start, i - start), line});
      continue;
    }
    if (IsIdentChar(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      out.tokens.push_back({Token::kIdent, src.substr(start, i - start), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (IsIdentChar(src[i]) || src[i] == '.' ||
                       (src[i] == '\'' && i + 1 < n &&
                        IsIdentChar(src[i + 1])) ||  // digit separator
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      out.tokens.push_back({Token::kNumber, src.substr(start, i - start), line});
      continue;
    }
    if (IsTwoCharPunct(c, peek(1))) {
      out.tokens.push_back({Token::kPunct, std::string() + c + peek(1), line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Token::kPunct, std::string(1, c), line});
    ++i;
  }
  out.tokens.push_back({Token::kEnd, "", line});
  return out;
}

}  // namespace gvmlint

#endif  // GVM_TOOLS_LINT_LEXER_H_
