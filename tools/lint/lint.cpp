#include "lint/lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lint/lexer.h"

namespace procon::lint {
namespace {

// ---- rule table -----------------------------------------------------------

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"det-rand", "determinism",
       "rand()/srand()/rand_r() forbidden in result-producing namespaces; "
       "use util::Rng seeded from the query"},
      {"det-random-device", "determinism",
       "std::random_device is entropy, not reproducible; seeds must be "
       "query-derived"},
      {"det-wallclock", "determinism",
       "wall-clock reads (chrono ::now(), time(), gettimeofday, "
       "clock_gettime) leak real time into results"},
      {"det-pointer-hash", "determinism",
       "hashing a pointer value (std::hash<T*>, unordered container keyed "
       "on a pointer) varies run to run; key on ids or fingerprints"},
      {"det-unordered-iter", "determinism",
       "iterating an unordered container (range-for or begin()) visits "
       "elements in hash order; iterate a sorted/indexed mirror instead"},
      {"warm-new", "warm-path",
       "`new` inside a PROCON_WARM_PATH body allocates on the warm path"},
      {"warm-container-construct", "warm-path",
       "constructing a local container inside a PROCON_WARM_PATH body "
       "allocates; use a workspace/member arena with grow-only capacity"},
      {"warm-std-function", "warm-path",
       "std::function inside a PROCON_WARM_PATH body may heap-allocate its "
       "target; take a template or function_ref-style parameter"},
      {"warm-push-back", "warm-path",
       "push_back/emplace_back on a body-local container without a prior "
       "reserve() on it reallocates on the warm path"},
      {"lint-allow-without-justification", "meta",
       "a lint:allow(rule) escape must carry a `: justification` explaining "
       "why the contract holds anyway"},
      {"lint-allow-unknown-rule", "meta",
       "a lint:allow() escape names a rule id that does not exist"},
  };
  return kRules;
}

// ---- token-stream helpers -------------------------------------------------

using Toks = std::vector<Token>;

bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::Identifier && t.text == s;
}
bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokKind::Punct && t.text == s;
}

/// Skips a template argument list: `i` indexes the `<` token; returns the
/// index one past the matching `>`. `>>` counts as two closes. Bails out
/// (returns `i`) if no balanced close is found within the stream — the
/// `<` was a comparison, not a template.
std::size_t skip_template(const Toks& code, std::size_t i) {
  if (i >= code.size() || !is_punct(code[i], "<")) return i;
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    const Token& t = code[j];
    if (t.kind != TokKind::Punct) continue;
    if (t.text == "<") {
      ++depth;
    } else if (t.text == ">") {
      if (--depth == 0) return j + 1;
    } else if (t.text == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t.text == ";" || t.text == "{" || t.text == "}") {
      return i;  // statement ended: not a template argument list
    }
  }
  return i;
}

/// Index one past the matching `)`; `i` indexes the `(`.
std::size_t skip_parens(const Toks& code, std::size_t i) {
  if (i >= code.size() || !is_punct(code[i], "(")) return i;
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (is_punct(code[j], "(")) ++depth;
    if (is_punct(code[j], ")") && --depth == 0) return j + 1;
  }
  return code.size();
}

/// Index of the matching `}`; `i` indexes the `{`. Returns code.size() when
/// unbalanced.
std::size_t find_close_brace(const Toks& code, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (is_punct(code[j], "{")) ++depth;
    if (is_punct(code[j], "}") && --depth == 0) return j;
  }
  return code.size();
}

/// Allocating container types for the warm-path family.
/// std::function is ruled separately (warm-std-function).
const std::set<std::string_view>& alloc_types() {
  static const std::set<std::string_view> kTypes = {
      "vector",        "string",        "basic_string",
      "deque",         "list",          "forward_list",
      "map",           "set",           "multimap",
      "multiset",      "unordered_map", "unordered_set",
      "unordered_multimap", "unordered_multiset",
      "queue",         "stack",         "priority_queue",
      "stringstream",  "ostringstream", "istringstream",
  };
  return kTypes;
}

const std::set<std::string_view>& unordered_types() {
  static const std::set<std::string_view> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kTypes;
}

// ---- allow-escape parsing -------------------------------------------------

struct AllowMap {
  // line -> rule ids allowed on that line
  std::map<int, std::set<std::string>> by_line;
};

void parse_allows(const Toks& all, AllowMap& allows,
                  std::vector<Finding>& out, const std::string& file,
                  const Options& opts) {
  for (const Token& t : all) {
    if (t.kind != TokKind::Comment) continue;
    const std::string_view text = t.text;
    std::size_t pos = text.find("lint:allow(");
    while (pos != std::string_view::npos) {
      const std::size_t open = pos + std::string_view("lint:allow(").size();
      const std::size_t close = text.find(')', open);
      if (close == std::string_view::npos) break;
      // Comma-separated rule list inside the parens.
      std::string_view list = text.substr(open, close - open);
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string_view::npos) comma = list.size();
        std::string_view id = list.substr(start, comma - start);
        while (!id.empty() && id.front() == ' ') id.remove_prefix(1);
        while (!id.empty() && id.back() == ' ') id.remove_suffix(1);
        if (!id.empty()) {
          if (!is_rule_id(id)) {
            if (opts.enabled("lint-allow-unknown-rule")) {
              out.push_back({file, t.line, "lint-allow-unknown-rule",
                             "lint:allow names unknown rule '" +
                                 std::string(id) + "'"});
            }
          } else {
            allows.by_line[t.line].insert(std::string(id));
          }
        }
        start = comma + 1;
      }
      // Justification: a ':' after the ')' followed by non-space text.
      std::size_t j = close + 1;
      bool justified = false;
      if (j < text.size() && text[j] == ':') {
        ++j;
        while (j < text.size() &&
               std::isspace(static_cast<unsigned char>(text[j]))) {
          ++j;
        }
        justified = j < text.size() && text[j] != '\0';
      }
      if (!justified && opts.enabled("lint-allow-without-justification")) {
        out.push_back({file, t.line, "lint-allow-without-justification",
                       "lint:allow escape has no ': justification'"});
      }
      pos = text.find("lint:allow(", close);
    }
  }
}

// ---- the linter -----------------------------------------------------------

class Linter {
 public:
  Linter(std::string file, const Toks& code, const Options& opts,
         std::vector<Finding>& out)
      : file_(std::move(file)), code_(code), opts_(opts), out_(out) {}

  void run() {
    collect_unordered_vars();
    scan();
  }

 private:
  void report(std::string_view rule, int line, std::string msg) {
    if (!opts_.enabled(rule)) return;
    out_.push_back({file_, line, std::string(rule), std::move(msg)});
  }

  // -- namespace tracking --

  struct NsFrame {
    int depth;  // brace depth *after* the namespace's '{'
    bool result_producing;
  };

  bool in_result_namespace() const {
    for (const NsFrame& f : ns_) {
      if (f.result_producing) return true;
    }
    return false;
  }

  bool is_result_component(std::string_view name) const {
    return std::find(opts_.result_namespaces.begin(),
                     opts_.result_namespaces.end(),
                     name) != opts_.result_namespaces.end();
  }

  // -- pass 0: every unordered container variable declared in the file --

  void collect_unordered_vars() {
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.kind != TokKind::Identifier || !unordered_types().count(t.text)) {
        continue;
      }
      std::size_t j = i + 1;
      if (j >= code_.size() || !is_punct(code_[j], "<")) continue;
      j = skip_template(code_, j);
      if (j == i + 1) continue;  // unbalanced: comparison, not a template
      // Skip declarator decorations; give up on nested-name uses.
      while (j < code_.size() &&
             (is_punct(code_[j], "&") || is_punct(code_[j], "&&") ||
              is_punct(code_[j], "*") || is_ident(code_[j], "const"))) {
        ++j;
      }
      if (j >= code_.size()) continue;
      if (code_[j].kind != TokKind::Identifier) continue;
      if (j + 1 < code_.size() && is_punct(code_[j + 1], "(")) {
        // function returning the container, not a variable
        continue;
      }
      unordered_vars_.insert(std::string(code_[j].text));
    }
  }

  // -- main scan --

  void scan() {
    int depth = 0;
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (is_punct(t, "{")) {
        ++depth;
        continue;
      }
      if (is_punct(t, "}")) {
        --depth;
        while (!ns_.empty() && ns_.back().depth > depth) ns_.pop_back();
        continue;
      }
      if (t.kind != TokKind::Identifier) continue;

      if (t.text == "namespace") {
        i = enter_namespace(i, depth);
        // depth adjusts on the '{' token next iteration; enter_namespace
        // leaves `i` *before* the '{' (or at the alias's ';').
        continue;
      }
      if (t.text == opts_.warm_annotation) {
        lint_warm_annotation(i);
        continue;
      }
      if (in_result_namespace()) check_determinism(i);
    }
  }

  /// Parses `namespace a::b {` / `namespace {` / `namespace x = y;`,
  /// pushing a frame for the brace forms. Returns the index of the token
  /// *before* the '{' or ';'.
  std::size_t enter_namespace(std::size_t i, int depth) {
    std::size_t j = i + 1;
    bool result = false;
    while (j < code_.size() && (code_[j].kind == TokKind::Identifier ||
                                is_punct(code_[j], "::"))) {
      if (code_[j].kind == TokKind::Identifier &&
          is_result_component(code_[j].text)) {
        result = true;
      }
      ++j;
    }
    if (j < code_.size() && is_punct(code_[j], "=")) return j;  // alias
    if (j < code_.size() && is_punct(code_[j], "{")) {
      ns_.push_back(NsFrame{depth + 1, result});
      return j - 1;
    }
    return j > i ? j - 1 : i;
  }

  // -- determinism family --

  void check_determinism(std::size_t i) {
    const Token& t = code_[i];
    const bool member_call =
        i > 0 && (is_punct(code_[i - 1], ".") || is_punct(code_[i - 1], "->"));
    auto next_is = [&](std::size_t k, std::string_view s) {
      return i + k < code_.size() && is_punct(code_[i + k], s);
    };

    // det-rand: the C PRNG family as free calls (member calls named rand on
    // a deterministic engine are someone's API, not libc).
    if ((t.text == "rand" || t.text == "srand" || t.text == "rand_r" ||
         t.text == "drand48" || t.text == "lrand48") &&
        next_is(1, "(") && !member_call) {
      report("det-rand", t.line,
             "call to " + std::string(t.text) +
                 "() in a result-producing namespace");
      return;
    }

    if (t.text == "random_device") {
      report("det-random-device", t.line,
             "std::random_device in a result-producing namespace");
      return;
    }

    // det-wallclock.
    static const std::set<std::string_view> kClocks = {
        "system_clock", "steady_clock", "high_resolution_clock", "utc_clock",
        "file_clock", "tai_clock", "gps_clock"};
    if (kClocks.count(t.text) && next_is(1, "::") && i + 2 < code_.size() &&
        is_ident(code_[i + 2], "now")) {
      report("det-wallclock", t.line,
             std::string(t.text) + "::now() in a result-producing namespace");
      return;
    }
    if ((t.text == "gettimeofday" || t.text == "clock_gettime" ||
         t.text == "timespec_get") &&
        next_is(1, "(")) {
      report("det-wallclock", t.line,
             std::string(t.text) + "() in a result-producing namespace");
      return;
    }
    if ((t.text == "time" || t.text == "clock") && next_is(1, "(") &&
        !member_call && i >= 2 && is_punct(code_[i - 1], "::") &&
        is_ident(code_[i - 2], "std")) {
      report("det-wallclock", t.line,
             "std::" + std::string(t.text) +
                 "() in a result-producing namespace");
      return;
    }

    // det-pointer-hash: std::hash<T*> or an unordered container keyed on a
    // pointer type.
    if (t.text == "hash" && next_is(1, "<")) {
      if (template_args_have_top_level_star(i + 1, /*first_arg_only=*/false)) {
        report("det-pointer-hash", t.line,
               "std::hash over a pointer type hashes the address");
      }
      return;
    }
    if (unordered_types().count(t.text) && next_is(1, "<")) {
      if (template_args_have_top_level_star(i + 1, /*first_arg_only=*/true)) {
        report("det-pointer-hash", t.line,
               std::string(t.text) +
                   " keyed on a pointer hashes the address");
      }
      // fall through: the declaration is also recorded by pass 0
    }

    // det-unordered-iter: range-for over a known unordered variable…
    if (t.text == "for" && next_is(1, "(")) {
      check_range_for(i);
      return;
    }
    // …or explicit iteration via begin()/end() on one.
    // end()/cend() alone are harmless; flagging only the begin family keeps
    // an iterator loop to one finding.
    static const std::set<std::string_view> kIterFns = {"begin", "cbegin",
                                                        "rbegin"};
    if (member_call && kIterFns.count(t.text) && next_is(1, "(") && i >= 2 &&
        code_[i - 2].kind == TokKind::Identifier &&
        unordered_vars_.count(std::string(code_[i - 2].text))) {
      report("det-unordered-iter", t.line,
             "iteration over unordered container '" +
                 std::string(code_[i - 2].text) + "' (" +
                 std::string(t.text) + "()) has hash-dependent order");
    }
  }

  /// True when the template argument list starting at the `<` at index `lt`
  /// contains a top-level `*` (first argument only when requested —
  /// unordered containers hash only their key).
  bool template_args_have_top_level_star(std::size_t lt, bool first_arg_only) {
    int depth = 0;
    for (std::size_t j = lt; j < code_.size(); ++j) {
      const Token& t = code_[j];
      if (t.kind != TokKind::Punct) continue;
      if (t.text == "<") {
        ++depth;
      } else if (t.text == ">") {
        if (--depth == 0) return false;
      } else if (t.text == ">>") {
        depth -= 2;
        if (depth <= 0) return false;
      } else if (t.text == "(") {
        j = skip_parens(code_, j) - 1;
      } else if (depth == 1 && t.text == "," && first_arg_only) {
        return false;
      } else if (depth == 1 && t.text == "*") {
        return true;
      } else if (t.text == ";" || t.text == "{") {
        return false;  // was a comparison after all
      }
    }
    return false;
  }

  void check_range_for(std::size_t for_idx) {
    const std::size_t open = for_idx + 1;
    const std::size_t close = skip_parens(code_, open);
    // Find the range-for ':' at paren depth 1 (skip "::" — one token).
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (is_punct(code_[j], "(")) ++depth;
      if (is_punct(code_[j], ")")) --depth;
      if (depth == 1 && is_punct(code_[j], ";")) return;  // classic for
      if (depth == 1 && is_punct(code_[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == 0) return;
    for (std::size_t j = colon + 1; j + 1 < close; ++j) {
      if (code_[j].kind == TokKind::Identifier &&
          unordered_vars_.count(std::string(code_[j].text))) {
        report("det-unordered-iter", code_[for_idx].line,
               "range-for over unordered container '" +
                   std::string(code_[j].text) + "' has hash-dependent order");
        return;
      }
    }
  }

  // -- warm-path family --

  /// `anno` indexes the PROCON_WARM_PATH token. Finds the function body it
  /// annotates and checks it. Annotated declarations (terminated by `;`
  /// before any body) are skipped — headers may carry the macro for
  /// documentation.
  void lint_warm_annotation(std::size_t anno) {
    std::size_t j = anno + 1;
    int pdepth = 0;
    bool saw_params = false;
    std::size_t body_open = code_.size();
    for (; j < code_.size(); ++j) {
      const Token& t = code_[j];
      if (is_punct(t, "(")) ++pdepth;
      if (is_punct(t, ")")) {
        if (--pdepth == 0) saw_params = true;
      }
      if (pdepth > 0) continue;
      if (is_punct(t, ";")) return;  // declaration only
      if (is_punct(t, "{") && saw_params) {
        body_open = j;
        break;
      }
    }
    if (body_open >= code_.size()) return;
    const std::size_t body_close = find_close_brace(code_, body_open);
    lint_warm_body(body_open + 1, body_close);
  }

  void lint_warm_body(std::size_t begin, std::size_t end) {
    std::set<std::string> locals;          // body-local container names
    std::set<std::string> reserved;        // locals that saw x.reserve(
    // First pass: find reserve() targets so declaration order within the
    // body does not matter for the reserve-before-push_back check.
    for (std::size_t i = begin; i + 3 < end; ++i) {
      if (code_[i].kind == TokKind::Identifier &&
          is_punct(code_[i + 1], ".") && is_ident(code_[i + 2], "reserve") &&
          is_punct(code_[i + 3], "(")) {
        reserved.insert(std::string(code_[i].text));
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Token& t = code_[i];
      if (t.kind != TokKind::Identifier) continue;

      if (t.text == "new" &&
          !(i > begin && is_ident(code_[i - 1], "operator"))) {
        report("warm-new", t.line, "`new` inside a PROCON_WARM_PATH body");
        continue;
      }

      if (t.text == "function" && i >= 2 && is_punct(code_[i - 1], "::") &&
          is_ident(code_[i - 2], "std")) {
        report("warm-std-function", t.line,
               "std::function inside a PROCON_WARM_PATH body");
        continue;
      }

      if (alloc_types().count(t.text)) {
        std::size_t j = i + 1;
        if (j < end && is_punct(code_[j], "<")) {
          const std::size_t after = skip_template(code_, j);
          if (after == j) continue;  // comparison, not a template
          j = after;
        }
        if (j >= end) continue;
        if (is_punct(code_[j], "::")) continue;  // nested type, no object
        if (is_punct(code_[j], "&") || is_punct(code_[j], "&&") ||
            is_punct(code_[j], "*")) {
          continue;  // reference/pointer binding: no construction
        }
        if (code_[j].kind == TokKind::Identifier &&
            code_[j].text != "const") {
          // `std::vector<int> tmp …` — a local that owns an allocation.
          locals.insert(std::string(code_[j].text));
          report("warm-container-construct", t.line,
                 "local " + std::string(t.text) +
                     " constructed inside a PROCON_WARM_PATH body");
        } else if (is_punct(code_[j], "(") || is_punct(code_[j], "{")) {
          report("warm-container-construct", t.line,
                 "temporary " + std::string(t.text) +
                     " constructed inside a PROCON_WARM_PATH body");
        }
        continue;
      }

      if ((t.text == "push_back" || t.text == "emplace_back") && i >= 2 &&
          is_punct(code_[i - 1], ".") &&
          code_[i - 2].kind == TokKind::Identifier && i + 1 < end &&
          is_punct(code_[i + 1], "(")) {
        const std::string target(code_[i - 2].text);
        if (locals.count(target) && !reserved.count(target)) {
          report("warm-push-back", t.line,
                 std::string(t.text) + " on unreserved body-local '" +
                     target + "' inside a PROCON_WARM_PATH body");
        }
      }
    }
  }

  std::string file_;
  const Toks& code_;
  const Options& opts_;
  std::vector<Finding>& out_;
  std::vector<NsFrame> ns_;
  std::set<std::string> unordered_vars_;
};

}  // namespace

// ---- public interface -----------------------------------------------------

const std::vector<RuleInfo>& rules() { return rule_table(); }

bool is_rule_id(std::string_view id) {
  for (const RuleInfo& r : rule_table()) {
    if (r.id == id) return true;
  }
  return false;
}

bool Options::enabled(std::string_view rule) const {
  return std::find(disabled.begin(), disabled.end(), rule) == disabled.end();
}

std::vector<Finding> lint_source(std::string_view path, std::string_view src,
                                 const Options& opts) {
  const Toks all = tokenize(src);
  std::vector<Finding> out;
  AllowMap allows;
  parse_allows(all, allows, out, std::string(path), opts);

  // Code stream: comments and preprocessor lines out of the matcher's way.
  Toks code;
  code.reserve(all.size());
  for (const Token& t : all) {
    if (t.kind == TokKind::Comment || t.kind == TokKind::Preprocessor) {
      continue;
    }
    code.push_back(t);
  }

  // An allow escape on a comment-only line covers the next code line (the
  // NOLINTNEXTLINE pattern) — justifications often need their own line.
  {
    std::set<int> code_lines;
    for (const Token& t : code) code_lines.insert(t.line);
    std::vector<std::pair<int, std::set<std::string>>> forwarded;
    for (const auto& [line, ids] : allows.by_line) {
      if (code_lines.count(line)) continue;
      const auto next = code_lines.upper_bound(line);
      if (next != code_lines.end()) forwarded.emplace_back(*next, ids);
    }
    for (auto& [line, ids] : forwarded) {
      allows.by_line[line].insert(ids.begin(), ids.end());
    }
  }

  Linter(std::string(path), code, opts, out).run();

  // Apply per-line allow escapes (meta findings are never suppressible).
  std::vector<Finding> kept;
  kept.reserve(out.size());
  for (Finding& f : out) {
    const auto it = allows.by_line.find(f.line);
    if (it != allows.by_line.end() && it->second.count(f.rule) &&
        f.rule.rfind("lint-allow", 0) != 0) {
      continue;
    }
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return kept;
}

std::vector<Finding> lint_file(const std::string& path, const Options& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("procon_lint: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  return lint_source(path, src, opts);
}

std::string render_rule_table() {
  std::ostringstream os;
  os << "# procon_lint rules\n\n";
  os << "Generated by `procon_lint --list-rules`; CI diffs this file "
        "against the\nbinary's output, so regenerate it (`procon_lint "
        "--list-rules > docs/LINT_RULES.md`)\nwhenever the rule table "
        "changes.\n\n";
  os << "| rule | family | enforces |\n";
  os << "|------|--------|----------|\n";
  for (const RuleInfo& r : rules()) {
    os << "| `" << r.id << "` | " << r.family << " | " << r.summary
       << " |\n";
  }
  os << "\nSuppress a single line with `// lint:allow(rule-id): "
        "justification` —\nthe justification is mandatory and the escape "
        "itself is linted.\n";
  return os.str();
}

}  // namespace procon::lint
