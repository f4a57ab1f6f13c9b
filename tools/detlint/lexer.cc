#include "lexer.h"

#include <cctype>

namespace detlint {
namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Multi-character operators detlint's patterns care about. Longest match
// first; anything not listed lexes as a single character.
constexpr std::string_view kMultiOps[] = {
    "...", "->*", "<<=", ">>=", "<=>", "::", "->", "==", "!=", "<=",
    ">=",  "&&",  "||",  "<<",  ">>", "+=", "-=", "*=", "/=", "%=",
    "&=",  "|=",  "^=",  "++",  "--",
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_{src} {}

  LexResult run() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (c == '#' && at_line_start_) {
        directive();
        continue;
      }
      at_line_start_ = false;
      if (c == '"') {
        string_lit();
        continue;
      }
      if (c == '\'') {
        char_lit();
        continue;
      }
      if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
        number();
        continue;
      }
      if (is_ident_start(c)) {
        identifier();
        continue;
      }
      punct();
    }
    return std::move(out_);
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  void emit(TokenKind kind, std::string text, int line) {
    out_.tokens.push_back({kind, std::move(text), line});
  }

  void count_newlines(std::string_view chunk) {
    for (const char c : chunk) {
      if (c == '\n') ++line_;
    }
  }

  void line_comment() {
    const int start_line = line_;
    pos_ += 2;
    const std::size_t begin = pos_;
    while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
    out_.comments.push_back(
        {start_line, std::string(src_.substr(begin, pos_ - begin))});
  }

  void block_comment() {
    const int start_line = line_;
    pos_ += 2;
    const std::size_t begin = pos_;
    while (pos_ < src_.size() &&
           !(src_[pos_] == '*' && peek(1) == '/')) {
      if (src_[pos_] == '\n') ++line_;
      ++pos_;
    }
    out_.comments.push_back(
        {start_line, std::string(src_.substr(begin, pos_ - begin))});
    if (pos_ < src_.size()) pos_ += 2;  // closing */
  }

  // Consumes a whole preprocessor line, honoring backslash continuations.
  // Comments inside directives still register (a waiver above a #define
  // should not vanish), which the line-comment/block-comment scan inside
  // handles. Quoted #include targets are recorded for header harvesting.
  void directive() {
    std::size_t p = pos_ + 1;  // past '#'
    while (p < src_.size() && (src_[p] == ' ' || src_[p] == '\t')) ++p;
    if (src_.substr(p, 7) == "include") {
      p += 7;
      while (p < src_.size() && (src_[p] == ' ' || src_[p] == '\t')) ++p;
      if (p < src_.size() && src_[p] == '"') {
        const std::size_t begin = p + 1;
        const std::size_t end = src_.find('"', begin);
        if (end != std::string_view::npos) {
          out_.includes.push_back(std::string(src_.substr(begin, end - begin)));
        }
      }
    }
    consume_directive_tail();
  }

  void consume_directive_tail() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        // A continuation keeps the directive going onto the next line.
        std::size_t back = pos_;
        bool continued = false;
        while (back > 0) {
          const char p = src_[back - 1];
          if (p == '\\') {
            continued = true;
            break;
          }
          if (p == ' ' || p == '\t' || p == '\r') {
            --back;
            continue;
          }
          break;
        }
        ++line_;
        ++pos_;
        if (!continued) {
          at_line_start_ = true;
          return;
        }
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      ++pos_;
    }
  }

  void string_lit() {
    // Raw string: the just-emitted token is an adjacent identifier ending in
    // R (R, uR, u8R, LR). Pop it and scan R"delim( ... )delim".
    if (!out_.tokens.empty()) {
      const Token& prev = out_.tokens.back();
      if (prev.kind == TokenKind::kIdent && prev.text.size() <= 3 &&
          prev.text.back() == 'R' && prev_end_ == pos_) {
        out_.tokens.pop_back();
        raw_string();
        return;
      }
    }
    const int start_line = line_;
    ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
      if (src_[pos_] == '\n') ++line_;
      ++pos_;
    }
    emit(TokenKind::kString, std::string(src_.substr(begin, pos_ - begin)),
         start_line);
    if (pos_ < src_.size()) ++pos_;  // closing quote
  }

  void raw_string() {
    const int start_line = line_;
    ++pos_;  // opening quote
    const std::size_t delim_begin = pos_;
    while (pos_ < src_.size() && src_[pos_] != '(') ++pos_;
    std::string closer = ")";
    closer.append(src_.substr(delim_begin, pos_ - delim_begin));
    closer += '"';
    if (pos_ < src_.size()) ++pos_;  // opening paren
    const std::size_t begin = pos_;
    const std::size_t end = src_.find(closer, pos_);
    const std::size_t stop = end == std::string_view::npos ? src_.size() : end;
    count_newlines(src_.substr(begin, stop - begin));
    emit(TokenKind::kString, std::string(src_.substr(begin, stop - begin)),
         start_line);
    pos_ = stop == src_.size() ? stop : stop + closer.size();
  }

  void char_lit() {
    const int start_line = line_;
    ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
      if (src_[pos_] == '\n') ++line_;
      ++pos_;
    }
    emit(TokenKind::kCharLit, std::string(src_.substr(begin, pos_ - begin)),
         start_line);
    if (pos_ < src_.size()) ++pos_;
  }

  // pp-number, close enough: digits, idents chars, digit separators, '.'
  // and exponent signs after e/E/p/P.
  void number() {
    const std::size_t begin = pos_;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (is_ident_char(c) || c == '.') {
        ++pos_;
        continue;
      }
      if (c == '\'' && is_ident_char(peek(1)) && pos_ > begin &&
          is_ident_char(src_[pos_ - 1])) {
        ++pos_;  // digit separator
        continue;
      }
      if ((c == '+' || c == '-') && pos_ > begin) {
        const char p = src_[pos_ - 1];
        if (p == 'e' || p == 'E' || p == 'p' || p == 'P') {
          ++pos_;
          continue;
        }
      }
      break;
    }
    emit(TokenKind::kNumber, std::string(src_.substr(begin, pos_ - begin)),
         line_);
    prev_end_ = pos_;
  }

  void identifier() {
    const std::size_t begin = pos_;
    while (pos_ < src_.size() && is_ident_char(src_[pos_])) ++pos_;
    emit(TokenKind::kIdent, std::string(src_.substr(begin, pos_ - begin)),
         line_);
    prev_end_ = pos_;
  }

  void punct() {
    for (const std::string_view op : kMultiOps) {
      if (src_.substr(pos_, op.size()) == op) {
        emit(TokenKind::kPunct, std::string(op), line_);
        pos_ += op.size();
        prev_end_ = pos_;
        return;
      }
    }
    emit(TokenKind::kPunct, std::string(1, src_[pos_]), line_);
    ++pos_;
    prev_end_ = pos_;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t prev_end_ = 0;  // end offset of the last ident/number token
  int line_ = 1;
  bool at_line_start_ = true;
  LexResult out_;
};

}  // namespace

LexResult lex(std::string_view source) { return Lexer(source).run(); }

bool is_float_literal(const Token& tok) {
  if (tok.kind != TokenKind::kNumber) return false;
  const std::string& t = tok.text;
  const bool hex = t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X');
  if (hex) {
    // Hex floats carry a p/P exponent; plain hex integers never do.
    return t.find('p') != std::string::npos || t.find('P') != std::string::npos;
  }
  if (t.find('.') != std::string::npos) return true;
  if (t.find('e') != std::string::npos || t.find('E') != std::string::npos) {
    return true;
  }
  const char last = t.back();
  return last == 'f' || last == 'F';
}

}  // namespace detlint
