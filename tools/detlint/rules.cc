#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "waivers.h"

namespace detlint {
namespace {

// Hash containers whose iteration order follows insert/erase history:
// std::unordered_* and the flat OpenHashMap / OpenHashSet
// (src/util/open_hash_map.h).
const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "OpenHashMap", "OpenHashSet"};

// Ordered / sequence container spellings: a local declaration with one of
// these shadows an imported unordered name of the same spelling (e.g. a
// file's own `std::map<...> links_` vs. a header's unordered `links_`).
const std::set<std::string> kOrderedContainers = {
    "map", "set", "multimap", "multiset", "vector",
    "deque", "list", "array", "span", "flat_map", "flat_set"};

// Calls that visit a container's elements in storage order: the begin()
// family, plus erase_if (member or std::), whose predicate runs per element
// in that order.
const std::set<std::string> kVisitCalls = {"begin",  "cbegin",  "rbegin",
                                           "crbegin", "erase_if"};

// Containers whose pointer-element instantiations make comparator-less
// sorting a pointer-order hazard.
const std::set<std::string> kSequenceContainers = {"vector", "deque", "list"};

// Integer targets of a pointer reinterpret_cast that typically feed a hash
// or a digest.
const std::set<std::string> kPtrIntTargets = {"uintptr_t", "intptr_t",
                                              "size_t", "uint64_t"};

// Identifiers that are wall-clock / entropy sources wherever they appear.
const std::set<std::string> kClockIdents = {
    "system_clock",   "steady_clock", "high_resolution_clock",
    "random_device",  "gettimeofday", "clock_gettime",
    "timespec_get",   "localtime",    "gmtime",
    "mt19937",        "mt19937_64",   "default_random_engine"};

// std::-qualified calls that are hazards (bare `time`/`clock` are too
// common as identifiers to flag unqualified except in specific call forms).
const std::set<std::string> kStdClockCalls = {"rand", "srand", "time",
                                              "clock"};

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == TokenKind::kPunct && t.text == p;
}
bool is_ident(const Token& t, std::string_view name) {
  return t.kind == TokenKind::kIdent && t.text == name;
}

class Analyzer {
 public:
  Analyzer(const std::string& display_path, std::string_view source,
           bool control_path, const HarvestedDecls* imported)
      : path_{display_path},
        control_path_{control_path},
        imported_{imported},
        lexed_{lex(source)},
        toks_{lexed_.tokens} {}

  FileReport run() {
    collect_waivers();
    collect_decls();
    merge_imported();
    propagate_auto_aliases();
    rule_unordered_iter();
    rule_pointer_order();
    rule_wall_clock();
    if (control_path_) rule_float_eq();
    apply_waivers();
    finalize();
    return std::move(report_);
  }

  HarvestedDecls harvest() {
    collect_decls();
    HarvestedDecls out;
    out.unordered.assign(unordered_names_.begin(), unordered_names_.end());
    out.ordered_overrides.assign(ordered_names_.begin(),
                                 ordered_names_.end());
    out.pointer_containers.assign(pointer_container_names_.begin(),
                                  pointer_container_names_.end());
    out.floats.assign(float_names_.begin(), float_names_.end());
    return out;
  }

 private:
  const Token& tok(std::size_t i) const { return toks_[i]; }
  std::size_t size() const { return toks_.size(); }

  void add(std::string rule, int line, std::string message) {
    report_.findings.push_back(
        {std::move(rule), path_, line, std::move(message), false, {}, {}});
  }

  // --- waivers (shared engine, waivers.h) -----------------------------------

  void collect_waivers() {
    waivers_ = collect_comment_waivers(lexed_.comments, "detlint:allow",
                                       path_, rule_names(), report_.findings);
  }

  void apply_waivers() {
    apply_comment_waivers(waivers_, report_.findings);
    for (UnusedWaiver& u : collect_unused_waivers(waivers_)) {
      report_.unused_waivers.push_back(std::move(u));
    }
  }

  void finalize() {
    std::sort(report_.findings.begin(), report_.findings.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule, a.message) <
                       std::tie(b.line, b.rule, b.message);
              });
  }

  // --- declaration harvesting ----------------------------------------------

  // Skips a balanced <...> starting at `i` (toks_[i] must be '<'); returns
  // the index just past the matching '>'. Treats '>>' as two closes.
  std::size_t skip_template_args(std::size_t i) const {
    int depth = 0;
    while (i < size()) {
      const Token& t = tok(i);
      if (is_punct(t, "<")) {
        ++depth;
      } else if (is_punct(t, ">")) {
        --depth;
      } else if (is_punct(t, ">>")) {
        depth -= 2;
      } else if (is_punct(t, ";") || is_punct(t, "{")) {
        return i;  // malformed; bail without consuming the statement
      }
      ++i;
      if (depth <= 0) return i;
    }
    return i;
  }

  // After a container type (and its template args), records the declared
  // variable names into `out`: handles `T a;`, `T a, b;`, `T a{...};`,
  // `T a = ...;`, `T* p;`, `T& r;`.
  void harvest_declarators(std::size_t i, std::set<std::string>& out) {
    while (i < size() &&
           (is_punct(tok(i), "*") || is_punct(tok(i), "&") ||
            is_punct(tok(i), "&&") || is_ident(tok(i), "const"))) {
      ++i;
    }
    while (i < size() && tok(i).kind == TokenKind::kIdent) {
      out.insert(tok(i).text);
      ++i;
      if (i < size() && is_punct(tok(i), ",")) {
        ++i;
        continue;
      }
      break;
    }
  }

  void collect_decls() {
    collect_unordered_names();
    collect_ordered_overrides();
    collect_pointer_container_names();
    collect_float_names();
  }

  void merge_imported() {
    if (imported_ == nullptr) return;
    for (const std::string& n : imported_->unordered) {
      if (ordered_names_.count(n) == 0) unordered_names_.insert(n);
    }
    for (const std::string& n : imported_->pointer_containers) {
      pointer_container_names_.insert(n);
    }
    for (const std::string& n : imported_->floats) float_names_.insert(n);
  }

  void collect_ordered_overrides() {
    for (std::size_t i = 0; i < size(); ++i) {
      if (tok(i).kind != TokenKind::kIdent ||
          kOrderedContainers.count(tok(i).text) == 0) {
        continue;
      }
      if (i + 1 >= size() || !is_punct(tok(i + 1), "<")) continue;
      harvest_declarators(skip_template_args(i + 1), ordered_names_);
    }
  }

  void collect_unordered_names() {
    // Type aliases naming an unordered container: `using X = ...unordered_...;`
    for (std::size_t i = 0; i + 2 < size(); ++i) {
      if (!is_ident(tok(i), "using") || tok(i + 1).kind != TokenKind::kIdent ||
          !is_punct(tok(i + 2), "=")) {
        continue;
      }
      for (std::size_t j = i + 3; j < size() && !is_punct(tok(j), ";"); ++j) {
        if (tok(j).kind == TokenKind::kIdent &&
            kUnorderedContainers.count(tok(j).text) > 0) {
          unordered_types_.insert(tok(i + 1).text);
          break;
        }
      }
    }
    // Declarations: `std::unordered_map<...> name[, name2];` and alias uses.
    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind != TokenKind::kIdent) continue;
      const bool is_container = kUnorderedContainers.count(t.text) > 0;
      const bool is_alias = unordered_types_.count(t.text) > 0;
      if (!is_container && !is_alias) continue;
      std::size_t j = i + 1;
      if (j < size() && is_punct(tok(j), "<")) j = skip_template_args(j);
      if (is_container && j == i + 1) continue;  // bare mention, not a decl
      harvest_declarators(j, unordered_names_);
    }
  }

  // Reference aliases: `auto& x = <expr over tracked names>;` tracks x,
  // unless the initializer calls a free function (then x holds a derived
  // value, e.g. a sorted snapshot, not the container itself). Iterates to a
  // fixpoint so chained aliases resolve. Runs after merge_imported so
  // aliases of header-declared members resolve too.
  void propagate_auto_aliases() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i + 2 < size(); ++i) {
        if (!is_ident(tok(i), "auto")) continue;
        std::size_t j = i + 1;
        while (j < size() &&
               (is_punct(tok(j), "&") || is_punct(tok(j), "*") ||
                is_punct(tok(j), "&&"))) {
          ++j;
        }
        if (j + 1 >= size() || tok(j).kind != TokenKind::kIdent ||
            !is_punct(tok(j + 1), "=")) {
          continue;
        }
        const std::string& name = tok(j).text;
        if (unordered_names_.count(name) > 0) continue;
        bool tracked = false;
        bool free_call = false;
        for (std::size_t k = j + 2; k < size() && !is_punct(tok(k), ";");
             ++k) {
          if (tok(k).kind == TokenKind::kIdent) {
            if (unordered_names_.count(tok(k).text) > 0) tracked = true;
            if (k + 1 < size() && is_punct(tok(k + 1), "(") &&
                !(k > 0 && (is_punct(tok(k - 1), ".") ||
                            is_punct(tok(k - 1), "->")))) {
              free_call = true;
            }
          }
        }
        if (tracked && !free_call) {
          unordered_names_.insert(name);
          changed = true;
        }
      }
    }
  }

  void collect_pointer_container_names() {
    for (std::size_t i = 0; i < size(); ++i) {
      if (tok(i).kind != TokenKind::kIdent ||
          kSequenceContainers.count(tok(i).text) == 0) {
        continue;
      }
      if (i + 1 >= size() || !is_punct(tok(i + 1), "<")) continue;
      const std::size_t past = skip_template_args(i + 1);
      // Pointer element type: a '*' directly before the closing '>'.
      if (past < 2 || !(is_punct(tok(past - 1), ">") ||
                        is_punct(tok(past - 1), ">>"))) {
        continue;
      }
      if (!is_punct(tok(past - 2), "*")) continue;
      harvest_declarators(past, pointer_container_names_);
    }
  }

  void collect_float_names() {
    for (std::size_t i = 0; i + 1 < size(); ++i) {
      if (!is_ident(tok(i), "double") && !is_ident(tok(i), "float")) continue;
      std::size_t j = i + 1;
      // `double* p` aliases, `double& r` params.
      while (j < size() &&
             (is_punct(tok(j), "&") || is_punct(tok(j), "const"))) {
        ++j;
      }
      if (j < size() && tok(j).kind == TokenKind::kIdent) {
        float_names_.insert(tok(j).text);
      }
    }
  }

  // --- rule passes ----------------------------------------------------------

  void rule_unordered_iter() {
    for (std::size_t i = 0; i < size(); ++i) {
      // Range-for whose range expression mentions a tracked container.
      if (is_ident(tok(i), "for") && i + 1 < size() &&
          is_punct(tok(i + 1), "(")) {
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < size(); ++j) {
          if (is_punct(tok(j), "(")) ++depth;
          if (is_punct(tok(j), ")")) {
            --depth;
            if (depth == 0) {
              close = j;
              break;
            }
          }
          if (depth == 1 && colon == 0 && is_punct(tok(j), ":")) colon = j;
        }
        if (colon != 0 && close != 0) {
          // A tracked name nested one paren level deeper than the range
          // expression is a call argument — the loop iterates the call's
          // result (e.g. the sorted_entries() snapshot), not the container.
          int expr_depth = 1;
          for (std::size_t j = colon + 1; j < close; ++j) {
            if (is_punct(tok(j), "(")) ++expr_depth;
            if (is_punct(tok(j), ")")) --expr_depth;
            if (expr_depth == 1 && tok(j).kind == TokenKind::kIdent &&
                unordered_names_.count(tok(j).text) > 0) {
              add("unordered-iter", tok(i).line,
                  "range-for over unordered container '" + tok(j).text +
                      "' (iteration order is not deterministic)");
              break;
            }
          }
        }
      }
      // member.begin()/cbegin()/rbegin()/erase_if() on a tracked container.
      if (tok(i).kind == TokenKind::kIdent &&
          unordered_names_.count(tok(i).text) > 0 && i + 3 < size() &&
          (is_punct(tok(i + 1), ".") || is_punct(tok(i + 1), "->")) &&
          tok(i + 2).kind == TokenKind::kIdent &&
          kVisitCalls.count(tok(i + 2).text) > 0 &&
          is_punct(tok(i + 3), "(")) {
        add("unordered-iter", tok(i).line,
            "iterator over unordered container '" + tok(i).text + "' via ." +
                tok(i + 2).text + "()");
      }
      // std::begin(tracked) / begin(tracked) / std::erase_if(tracked, ...).
      if (tok(i).kind == TokenKind::kIdent &&
          kVisitCalls.count(tok(i).text) > 0 && i + 2 < size() &&
          is_punct(tok(i + 1), "(") && tok(i + 2).kind == TokenKind::kIdent &&
          unordered_names_.count(tok(i + 2).text) > 0) {
        add("unordered-iter", tok(i).line,
            "iterator over unordered container '" + tok(i + 2).text +
                "' via " + tok(i).text + "()");
      }
    }
  }

  void rule_pointer_order() {
    for (std::size_t i = 0; i < size(); ++i) {
      // Comparator-less sort touching a pointer-element container.
      if (is_ident(tok(i), "sort") && i + 1 < size() &&
          is_punct(tok(i + 1), "(")) {
        int depth = 0;
        std::size_t commas = 0;
        bool ptr_container = false;
        std::size_t j = i + 1;
        for (; j < size(); ++j) {
          if (is_punct(tok(j), "(")) ++depth;
          if (is_punct(tok(j), ")")) {
            --depth;
            if (depth == 0) break;
          }
          if (depth == 1 && is_punct(tok(j), ",")) ++commas;
          if (tok(j).kind == TokenKind::kIdent &&
              pointer_container_names_.count(tok(j).text) > 0) {
            ptr_container = true;
          }
        }
        if (ptr_container && commas < 2) {
          add("pointer-order", tok(i).line,
              "sort of pointer elements without a key comparator (pointer "
              "order varies run to run)");
        }
      }
      // std::hash<T*>.
      if (is_ident(tok(i), "hash") && i + 1 < size() &&
          is_punct(tok(i + 1), "<")) {
        const std::size_t past = skip_template_args(i + 1);
        if (past >= 2 && is_punct(tok(past - 1), ">") &&
            is_punct(tok(past - 2), "*")) {
          add("pointer-order", tok(i).line,
              "std::hash over a pointer type (hashes the address)");
        }
      }
      // reinterpret_cast<integer>(ptr).
      if (is_ident(tok(i), "reinterpret_cast") && i + 1 < size() &&
          is_punct(tok(i + 1), "<")) {
        const std::size_t past = skip_template_args(i + 1);
        for (std::size_t j = i + 2; j + 1 < past; ++j) {
          if (tok(j).kind == TokenKind::kIdent &&
              kPtrIntTargets.count(tok(j).text) > 0) {
            add("pointer-order", tok(i).line,
                "pointer reinterpreted as integer '" + tok(j).text +
                    "' (address values are not reproducible)");
            break;
          }
        }
      }
    }
  }

  void rule_wall_clock() {
    for (std::size_t i = 0; i < size(); ++i) {
      if (tok(i).kind != TokenKind::kIdent) continue;
      const std::string& t = tok(i).text;
      if (kClockIdents.count(t) > 0) {
        add("wall-clock", tok(i).line,
            "wall-clock/entropy API '" + t +
                "' (simulation must use Simulator time / seeded Rng)");
        continue;
      }
      const bool std_qualified =
          i >= 2 && is_punct(tok(i - 1), "::") && is_ident(tok(i - 2), "std");
      if (std_qualified && kStdClockCalls.count(t) > 0) {
        add("wall-clock", tok(i).line,
            "wall-clock/entropy API 'std::" + t + "'");
        continue;
      }
      // Unqualified call forms that are unambiguous: rand(), srand(x),
      // time(nullptr|NULL|0), clock().
      if (i + 1 < size() && is_punct(tok(i + 1), "(")) {
        if ((t == "rand" || t == "clock") && i + 2 < size() &&
            is_punct(tok(i + 2), ")")) {
          add("wall-clock", tok(i).line,
              "wall-clock/entropy API '" + t + "()'");
        } else if (t == "srand") {
          add("wall-clock", tok(i).line, "wall-clock/entropy API 'srand'");
        } else if (t == "time" && i + 2 < size() &&
                   (is_ident(tok(i + 2), "nullptr") ||
                    is_ident(tok(i + 2), "NULL") ||
                    (tok(i + 2).kind == TokenKind::kNumber &&
                     tok(i + 2).text == "0"))) {
          add("wall-clock", tok(i).line,
              "wall-clock/entropy API 'time(" + tok(i + 2).text + ")'");
        }
      }
    }
  }

  void rule_float_eq() {
    for (std::size_t i = 1; i + 1 < size(); ++i) {
      if (!is_punct(tok(i), "==") && !is_punct(tok(i), "!=")) continue;
      const Token& lhs = tok(i - 1);
      const Token& rhs = tok(i + 1);
      if (is_ident(lhs, "operator")) continue;  // operator==/!= declaration
      const bool lhs_float =
          is_float_literal(lhs) || (lhs.kind == TokenKind::kIdent &&
                                    float_names_.count(lhs.text) > 0);
      const bool rhs_float =
          is_float_literal(rhs) || (rhs.kind == TokenKind::kIdent &&
                                    float_names_.count(rhs.text) > 0);
      if (lhs_float || rhs_float) {
        add("float-eq", tok(i).line,
            "floating-point " + tok(i).text +
                " comparison in a control path (use an epsilon or integer "
                "state)");
      }
    }
  }

  std::string path_;
  bool control_path_;
  const HarvestedDecls* imported_;
  LexResult lexed_;
  const std::vector<Token>& toks_;
  std::set<std::string> unordered_types_;
  std::set<std::string> unordered_names_;
  std::set<std::string> ordered_names_;
  std::set<std::string> pointer_container_names_;
  std::set<std::string> float_names_;
  std::vector<Waiver> waivers_;
  FileReport report_;
};

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "unordered-iter", "pointer-order", "wall-clock", "float-eq",
      "bad-waiver"};
  return kNames;
}

HarvestedDecls harvest_decls(std::string_view source) {
  return Analyzer("", source, false, nullptr).harvest();
}

FileReport analyze_source(const std::string& display_path,
                          std::string_view source, bool control_path,
                          const HarvestedDecls* imported) {
  return Analyzer(display_path, source, control_path, imported).run();
}

}  // namespace detlint
