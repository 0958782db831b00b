// procon_lint — repo-specific contract checker for the procon codebase.
//
// Two contract families are enforced at the source level, before any test
// has to *happen* to exercise the violating path (docs/ARCHITECTURE.md
// "Contract enforcement" maps each rule to the cached-object contract it
// guards):
//
//  * determinism (det-*): result-producing namespaces (analysis, prob, sim,
//    dse, wcrt) must stay bitwise reproducible for any thread count and
//    table state, so nondeterministic sources — rand(), random_device,
//    wall-clock now(), pointer-value hashing, iteration over unordered
//    containers — are forbidden there;
//  * warm-path zero-alloc (warm-*): function definitions annotated
//    PROCON_WARM_PATH (src/util/contracts.h) are documented
//    zero-heap-allocation serving paths; local container construction,
//    `new`, std::function and unreserved push_back on body-locals are
//    flagged (member/workspace arenas stay fair game — the grow-only
//    contract lives there).
//
// Escape hatch: `// lint:allow(rule-id): justification` on the finding's
// line suppresses that rule there; an escape without a justification (or
// naming an unknown rule) is itself a finding.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace procon::lint {

struct RuleInfo {
  std::string_view id;       ///< stable rule identifier, e.g. "det-rand"
  std::string_view family;   ///< determinism | warm-path | meta
  std::string_view summary;  ///< one-line description (drives --list-rules)
};

/// The full rule table in stable order. docs/LINT_RULES.md is the committed
/// `procon_lint --list-rules` rendering of exactly this table (a CI check
/// diffs the two).
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// True when `id` names a rule in rules().
[[nodiscard]] bool is_rule_id(std::string_view id);

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  /// Rule ids switched off (findings for them are dropped entirely).
  std::vector<std::string> disabled;
  /// Annotation macro marking zero-alloc warm-path function definitions.
  std::string warm_annotation = "PROCON_WARM_PATH";
  /// Namespace components whose code must be deterministic.
  std::vector<std::string> result_namespaces = {"analysis", "prob", "sim",
                                                "dse", "wcrt"};

  [[nodiscard]] bool enabled(std::string_view rule) const;
};

/// Lints one in-memory source. `path` is used for reporting only.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path,
                                               std::string_view src,
                                               const Options& opts);

/// Reads `path` and lints it. Throws std::runtime_error if unreadable.
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path,
                                             const Options& opts);

/// Renders rules() as the markdown document committed at docs/LINT_RULES.md.
[[nodiscard]] std::string render_rule_table();

}  // namespace procon::lint
