#include "callgraph.h"

#include <set>

namespace detlint {
namespace {

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == TokenKind::kPunct && t.text == p;
}
bool is_ident(const Token& t, std::string_view name) {
  return t.kind == TokenKind::kIdent && t.text == name;
}

// Identifiers that can precede '(' without being a callable or function
// name. Type keywords are included: nothing definable is named `int`.
const std::set<std::string> kNotFunctionNames = {
    "if",       "for",      "while",    "switch",   "catch",
    "return",   "sizeof",   "alignof",  "decltype", "noexcept",
    "static_assert",        "alignas",  "typeid",   "throw",
    "case",     "goto",     "requires", "concept",  "new",
    "delete",   "void",     "int",      "bool",     "char",
    "short",    "long",     "float",    "double",   "unsigned",
    "signed",   "auto",     "co_await", "co_return", "co_yield",
    "defined",  "assert",
};

const std::set<std::string> kMapLikeContainers = {"map", "unordered_map",
                                                  "flat_map", "OpenHashMap"};

// Keywords that disqualify a namespace-scope statement from being a mutable
// variable declaration.
const std::set<std::string> kGlobalStmtBans = {
    "const", "constexpr", "constinit", "operator", "static_assert",
    "concept", "requires", "return",
};

// Skips a balanced pair starting at `i` (toks[i] must be `open`); returns
// the index just past the matching close, or toks.size() when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i,
                          std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], open)) {
      ++depth;
    } else if (is_punct(toks[i], close)) {
      if (--depth == 0) return i + 1;
    }
  }
  return toks.size();
}

// Skips a balanced <...> starting at `i` (toks[i] must be '<'); returns the
// index just past the matching '>'. '>>' closes two. Bails at ';'/'{' so a
// stray comparison cannot eat the rest of the file.
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t i) {
  int depth = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ">")) {
      --depth;
    } else if (is_punct(t, ">>")) {
      depth -= 2;
    } else if (is_punct(t, ";") || is_punct(t, "{")) {
      return i;
    }
    ++i;
    if (depth <= 0) return i;
  }
  return i;
}

// Starting at an opening '(' of a parameter list, matches the remainder of
// a function-definition signature: params, cv/ref/noexcept/override/final,
// optional trailing return type, optional ctor init list. Returns the token
// index of the body's '{', or 0 when this is not a definition.
std::size_t match_signature(const std::vector<Token>& toks,
                            std::size_t open) {
  std::size_t j = skip_balanced(toks, open, "(", ")");
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (is_ident(t, "const") || is_ident(t, "override") ||
        is_ident(t, "final") || is_ident(t, "mutable") ||
        is_punct(t, "&") || is_punct(t, "&&")) {
      ++j;
      continue;
    }
    if (is_ident(t, "noexcept")) {
      ++j;
      if (j < toks.size() && is_punct(toks[j], "(")) {
        j = skip_balanced(toks, j, "(", ")");
      }
      continue;
    }
    if (is_punct(t, "->")) {  // trailing return type
      ++j;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";") && !is_punct(toks[j], "=") &&
             !is_punct(toks[j], ":")) {
        if (is_punct(toks[j], "<")) {
          j = skip_template_args(toks, j);
          continue;
        }
        ++j;
      }
      continue;
    }
    break;
  }
  if (j >= toks.size()) return 0;
  if (is_punct(toks[j], "{")) return j;
  if (!is_punct(toks[j], ":")) return 0;  // declaration / = default / ...
  // Ctor init list: `ident(args)` or `ident{args}` members, comma-separated.
  ++j;
  while (j < toks.size()) {
    while (j < toks.size() &&
           (toks[j].kind == TokenKind::kIdent || is_punct(toks[j], "::"))) {
      ++j;
    }
    if (j < toks.size() && is_punct(toks[j], "<")) {
      j = skip_template_args(toks, j);
    }
    if (j >= toks.size()) return 0;
    if (is_punct(toks[j], "(")) {
      j = skip_balanced(toks, j, "(", ")");
    } else if (is_punct(toks[j], "{")) {
      j = skip_balanced(toks, j, "{", "}");
    } else {
      return 0;
    }
    if (j < toks.size() && is_punct(toks[j], ",")) {
      ++j;
      continue;
    }
    break;
  }
  if (j < toks.size() && is_punct(toks[j], "{")) return j;
  return 0;
}

class StructureScanner {
 public:
  StructureScanner(const LexResult& lexed, int file)
      : toks_{lexed.tokens}, file_{file} {}

  FileStructure run() {
    scan();
    collect_hot_marks();
    collect_cold_regions();
    collect_map_names();
    std::set<std::string> dedup{globals_.begin(), globals_.end()};
    out_.decls.mutable_globals.assign(dedup.begin(), dedup.end());
    return std::move(out_);
  }

 private:
  enum ScopeKind { kNamespace, kClass };

  bool in_class_scope() const {
    for (const ScopeKind k : scopes_) {
      if (k == kClass) return true;
    }
    return false;
  }

  // Classifies the namespace-scope statement accumulated in `stmt_` as a
  // mutable variable declaration (or not) and records the declared name.
  // `upto_brace` is true when the statement ends at a braced initializer
  // rather than ';'.
  void flush_stmt(bool upto_brace) {
    if (stmt_.empty() || in_class_scope()) {
      stmt_.clear();
      return;
    }
    bool banned = false;
    std::size_t idents = 0;
    for (const Token* t : stmt_) {
      if (t->kind == TokenKind::kPunct &&
          (t->text == "(" || t->text == ")")) {
        banned = true;  // function decl / pointer-to-function / macro call
      }
      if (t->kind == TokenKind::kIdent) {
        ++idents;
        if (kGlobalStmtBans.count(t->text) > 0) banned = true;
      }
    }
    if (banned || idents < 2) {
      stmt_.clear();
      return;
    }
    // Declared name: last identifier before '=' / '[' (or before the brace
    // when `upto_brace`), else the last identifier in the statement.
    const Token* name = nullptr;
    for (const Token* t : stmt_) {
      if (t->kind == TokenKind::kPunct &&
          (t->text == "=" || t->text == "[")) {
        break;
      }
      if (t->kind == TokenKind::kIdent) name = t;
    }
    (void)upto_brace;
    if (name != nullptr && kNotFunctionNames.count(name->text) == 0) {
      globals_.push_back(name->text);
    }
    stmt_.clear();
  }

  void scan() {
    std::size_t i = 0;
    while (i < toks_.size()) {
      const Token& t = toks_[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") {
          // Braced initializer of a namespace-scope variable, or an
          // unclassified brace (global lambda, macro body): skipped
          // wholesale either way.
          flush_stmt(true);
          i = skip_balanced(toks_, i, "{", "}");
          continue;
        }
        if (t.text == "}") {
          stmt_.clear();
          if (!scopes_.empty()) {
            scopes_.pop_back();
            class_names_.pop_back();
          }
          ++i;
          continue;
        }
        if (t.text == ";") {
          flush_stmt(false);
          ++i;
          continue;
        }
        stmt_.push_back(&t);
        ++i;
        continue;
      }
      if (t.kind != TokenKind::kIdent) {
        stmt_.push_back(&t);
        ++i;
        continue;
      }
      const std::string& w = t.text;
      if (w == "namespace") {
        stmt_.clear();
        std::size_t j = i + 1;
        while (j < toks_.size() && !is_punct(toks_[j], "{") &&
               !is_punct(toks_[j], ";") && !is_punct(toks_[j], "=")) {
          ++j;
        }
        if (j < toks_.size() && is_punct(toks_[j], "{")) {
          scopes_.push_back(kNamespace);
          class_names_.push_back("");
          i = j + 1;
        } else {
          i = j < toks_.size() ? j + 1 : j;
        }
        continue;
      }
      if (w == "class" || w == "struct" || w == "union") {
        stmt_.clear();
        std::string name;
        std::size_t j = i + 1;
        while (j < toks_.size() && !is_punct(toks_[j], "{") &&
               !is_punct(toks_[j], ";") && !is_punct(toks_[j], "(")) {
          if (is_punct(toks_[j], "<")) {
            j = skip_template_args(toks_, j);
            continue;
          }
          if (name.empty() && toks_[j].kind == TokenKind::kIdent &&
              toks_[j].text != "final" && toks_[j].text != "alignas") {
            name = toks_[j].text;
          }
          ++j;
        }
        if (j < toks_.size() && is_punct(toks_[j], "{")) {
          scopes_.push_back(kClass);
          class_names_.push_back(name);
          i = j + 1;
        } else {
          i = j < toks_.size() ? j + 1 : j;
        }
        continue;
      }
      if (w == "enum") {
        stmt_.clear();
        std::size_t j = i + 1;
        while (j < toks_.size() && !is_punct(toks_[j], "{") &&
               !is_punct(toks_[j], ";")) {
          ++j;
        }
        i = j < toks_.size() && is_punct(toks_[j], "{")
                ? skip_balanced(toks_, j, "{", "}")
                : (j < toks_.size() ? j + 1 : j);
        continue;
      }
      if (w == "using" || w == "typedef" || w == "friend") {
        stmt_.clear();
        while (i < toks_.size() && !is_punct(toks_[i], ";")) ++i;
        if (i < toks_.size()) ++i;
        continue;
      }
      if (w == "template") {
        stmt_.clear();
        i = i + 1 < toks_.size() && is_punct(toks_[i + 1], "<")
                ? skip_template_args(toks_, i + 1)
                : i + 1;
        continue;
      }
      if (w == "extern" && i + 2 < toks_.size() &&
          toks_[i + 1].kind == TokenKind::kString &&
          is_punct(toks_[i + 2], "{")) {
        stmt_.clear();
        scopes_.push_back(kNamespace);
        class_names_.push_back("");
        i += 3;
        continue;
      }
      // `operator<op>` definitions: compose the name across the operator
      // tokens so the body is recognized and skipped like any other.
      if (w == "operator") {
        std::string op;
        std::size_t j = i + 1;
        while (j < toks_.size() && !is_punct(toks_[j], "(") &&
               !is_punct(toks_[j], ";") && !is_punct(toks_[j], "{")) {
          op += toks_[j].text;
          ++j;
        }
        if (j < toks_.size() && is_punct(toks_[j], "(") && op.empty() &&
            j + 2 < toks_.size() && is_punct(toks_[j + 1], ")") &&
            is_punct(toks_[j + 2], "(")) {
          op = "()";  // operator()(...)
          j += 2;
        }
        if (j < toks_.size() && is_punct(toks_[j], "(")) {
          if (try_function(i, "operator" + op, j)) continue;
        }
        stmt_.clear();
        i = j;
        continue;
      }
      if (i + 1 < toks_.size() && is_punct(toks_[i + 1], "(") &&
          kNotFunctionNames.count(w) == 0) {
        if (try_function(i, w, i + 1)) continue;
        // Not a definition (a declaration, macro invocation, or variable
        // with direct-init): poison the pending statement so it is not
        // misread as a mutable global, then move on.
        stmt_.push_back(&t);
        i += 1;
        continue;
      }
      stmt_.push_back(&t);
      ++i;
      continue;
    }
  }

  // Attempts to record a function definition whose name token is at
  // `name_tok` and whose parameter '(' is at `open`. On success advances
  // i past the body via the return-value contract (caller `continue`s) and
  // returns true.
  bool try_function(std::size_t& i, const std::string& name,
                    std::size_t open) {
    const std::size_t body = match_signature(toks_, open);
    if (body == 0) return false;
    FunctionDef def;
    def.name = name;
    def.file = file_;
    def.line = toks_[i].line;
    if (i >= 2 && is_punct(toks_[i - 1], "::") &&
        toks_[i - 2].kind == TokenKind::kIdent) {
      def.qualifier = toks_[i - 2].text;
    } else if (!class_names_.empty() && !class_names_.back().empty()) {
      def.qualifier = class_names_.back();
    }
    def.body_begin = body + 1;
    const std::size_t past = skip_balanced(toks_, body, "{", "}");
    def.body_end = past == 0 ? toks_.size() : past - 1;
    out_.functions.push_back(std::move(def));
    stmt_.clear();
    i = past;
    return true;
  }

  void collect_hot_marks() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i], "INBAND_HOT")) continue;
      // The annotated function: first `name(` after the marker, before the
      // declaration ends. `operator<op>` names are composed across the
      // operator tokens so an INBAND_HOT call operator roots as
      // "operator()" (the definition's name), not as "operator".
      for (std::size_t j = i + 1;
           j < toks_.size() && j < i + 64 && !is_punct(toks_[j], ";"); ++j) {
        if (toks_[j].kind != TokenKind::kIdent ||
            kNotFunctionNames.count(toks_[j].text) > 0) {
          continue;
        }
        if (toks_[j].text == "operator") {
          std::string op;
          std::size_t k = j + 1;
          while (k < toks_.size() && !is_punct(toks_[k], "(") &&
                 !is_punct(toks_[k], ";") && !is_punct(toks_[k], "{")) {
            op += toks_[k].text;
            ++k;
          }
          if (k < toks_.size() && is_punct(toks_[k], "(") && op.empty() &&
              k + 2 < toks_.size() && is_punct(toks_[k + 1], ")") &&
              is_punct(toks_[k + 2], "(")) {
            op = "()";
          }
          if (k < toks_.size() && is_punct(toks_[k], "(") && !op.empty()) {
            out_.hot_names.push_back("operator" + op);
            break;
          }
          continue;
        }
        if (j + 1 < toks_.size() && is_punct(toks_[j + 1], "(")) {
          out_.hot_names.push_back(toks_[j].text);
          break;
        }
      }
    }
  }

  void collect_cold_regions() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i], "INBAND_COLD_OK")) continue;
      if (!(i + 2 < toks_.size() && is_punct(toks_[i + 1], "(") &&
            toks_[i + 2].kind == TokenKind::kString &&
            !toks_[i + 2].text.empty())) {
        out_.bad_cold_lines.push_back(toks_[i].line);
        continue;
      }
      ColdRegion region;
      region.begin = i;
      region.line = toks_[i].line;
      region.reason = toks_[i + 2].text;
      // The region runs to the end of the enclosing brace block.
      int depth = 0;
      std::size_t j = i;
      for (; j < toks_.size(); ++j) {
        if (is_punct(toks_[j], "{")) ++depth;
        if (is_punct(toks_[j], "}")) {
          if (depth == 0) break;
          --depth;
        }
      }
      region.end = j;
      out_.cold_regions.push_back(std::move(region));
    }
  }

  void collect_map_names() {
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != TokenKind::kIdent ||
          kMapLikeContainers.count(toks_[i].text) == 0 ||
          !is_punct(toks_[i + 1], "<")) {
        continue;
      }
      std::size_t j = skip_template_args(toks_, i + 1);
      while (j < toks_.size() &&
             (is_punct(toks_[j], "*") || is_punct(toks_[j], "&") ||
              is_ident(toks_[j], "const"))) {
        ++j;
      }
      while (j < toks_.size() && toks_[j].kind == TokenKind::kIdent) {
        names.insert(toks_[j].text);
        ++j;
        if (j < toks_.size() && is_punct(toks_[j], ",")) {
          ++j;
          continue;
        }
        break;
      }
    }
    out_.decls.map_names.assign(names.begin(), names.end());
  }

  const std::vector<Token>& toks_;
  int file_;
  std::vector<ScopeKind> scopes_;
  std::vector<std::string> class_names_;  // parallel to scopes_
  std::vector<const Token*> stmt_;        // pending namespace-scope statement
  std::vector<std::string> globals_;
  FileStructure out_;
};

}  // namespace

std::string display_name(const FunctionDef& def) {
  return def.qualifier.empty() ? def.name : def.qualifier + "::" + def.name;
}

FileStructure analyze_structure(const LexResult& lexed, int file) {
  return StructureScanner(lexed, file).run();
}

std::vector<CallSite> find_calls(const LexResult& lexed,
                                 const FunctionDef& def) {
  const std::vector<Token>& toks = lexed.tokens;
  std::vector<CallSite> out;
  for (std::size_t i = def.body_begin;
       i < def.body_end && i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdent || kNotFunctionNames.count(t.text) > 0) {
      continue;
    }
    const bool member =
        i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    std::string qualifier;
    if (!member && i >= 2 && is_punct(toks[i - 1], "::") &&
        toks[i - 2].kind == TokenKind::kIdent) {
      qualifier = toks[i - 2].text;
    }
    std::string callee = t.text;
    if (t.text == "operator") {
      // Explicit operator calls — `x.operator+(y)`, `operator<<(os, v)`,
      // `f.operator()(a)` — compose the callee across the operator tokens
      // the same way the definition scan does, so they resolve to the
      // matching operator definitions.
      std::string op;
      std::size_t j = i + 1;
      while (j < toks.size() && !is_punct(toks[j], "(") &&
             !is_punct(toks[j], ";") && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], "}")) {
        op += toks[j].text;
        ++j;
      }
      if (j >= toks.size() || !is_punct(toks[j], "(")) continue;
      if (op.empty()) {
        if (j + 2 < toks.size() && is_punct(toks[j + 1], ")") &&
            is_punct(toks[j + 2], "(")) {
          op = "()";  // x.operator()(args)
        } else {
          continue;  // an operator() definition's own signature, not a call
        }
      }
      callee = "operator" + op;
    } else if (is_punct(toks[i + 1], "<") && (member || !qualifier.empty())) {
      // Template member/qualified dispatch: `x.f<T>(...)`, `Cls::f<T>(...)`.
      // Only the member/qualified forms are accepted — a bare `a < b`
      // comparison would otherwise masquerade as a template call.
      const std::size_t past = skip_template_args(toks, i + 1);
      if (!(past > i + 2 && past < toks.size() && is_punct(toks[past], "(") &&
            (is_punct(toks[past - 1], ">") ||
             is_punct(toks[past - 1], ">>")))) {
        continue;
      }
    } else if (!is_punct(toks[i + 1], "(")) {
      continue;
    }
    CallSite cs;
    cs.callee = std::move(callee);
    cs.line = t.line;
    cs.token = i;
    cs.member_call = member;
    if (!member) cs.qualifier = std::move(qualifier);
    out.push_back(std::move(cs));
  }
  return out;
}

}  // namespace detlint
