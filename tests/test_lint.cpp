// Tests for procon_lint itself. Each fixture under tests/lint_fixtures/ is
// a deliberately violating (or deliberately clean) snippet; the assertions
// pin exact (rule, line) pairs so a matcher regression shows up as a diff,
// not a silent pass. Each rule family is additionally proven *live*: with
// the rule disabled, the same fixture must lint clean — a rule that cannot
// be switched off this way is a rule the fixture never exercised.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace procon::lint {
namespace {

#ifndef PROCON_LINT_FIXTURES_DIR
#error "PROCON_LINT_FIXTURES_DIR must be defined by the build"
#endif

std::string fixture(const std::string& name) {
  return std::string(PROCON_LINT_FIXTURES_DIR) + "/" + name;
}

using RuleLine = std::pair<std::string, int>;

std::vector<RuleLine> rule_lines(const std::vector<Finding>& findings) {
  std::vector<RuleLine> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

/// Lints `name` and asserts the exact (rule, line) multiset.
void expect_findings(const std::string& name,
                     const std::vector<RuleLine>& expected) {
  const std::vector<Finding> got = lint_file(fixture(name), Options{});
  EXPECT_EQ(rule_lines(got), expected) << "fixture: " << name;
}

/// Proves a rule is live on its fixture: disabling exactly that rule makes
/// the fixture lint clean (any co-firing rules are disabled alongside).
void expect_rule_is_live(const std::string& name,
                         const std::vector<std::string>& rules_to_disable) {
  Options opts;
  ASSERT_FALSE(lint_file(fixture(name), opts).empty())
      << "fixture " << name << " found nothing with all rules on";
  opts.disabled.insert(opts.disabled.end(), rules_to_disable.begin(),
                       rules_to_disable.end());
  const std::vector<Finding> off = lint_file(fixture(name), opts);
  EXPECT_TRUE(off.empty())
      << "fixture " << name << " still fires with its rule(s) disabled: "
      << (off.empty() ? "" : off.front().rule);
}

// ---- determinism family ---------------------------------------------------

TEST(Lint, DetRandExactFindings) {
  expect_findings("det_rand.cpp", {{"det-rand", 6}, {"det-rand", 7}});
  expect_rule_is_live("det_rand.cpp", {"det-rand"});
}

TEST(Lint, DetRandomDeviceExactFindings) {
  expect_findings("det_random_device.cpp", {{"det-random-device", 7}});
  expect_rule_is_live("det_random_device.cpp", {"det-random-device"});
}

TEST(Lint, DetWallclockExactFindings) {
  expect_findings("det_wallclock.cpp",
                  {{"det-wallclock", 8}, {"det-wallclock", 11}});
  expect_rule_is_live("det_wallclock.cpp", {"det-wallclock"});
}

TEST(Lint, DetPointerHashExactFindings) {
  expect_findings("det_pointer_hash.cpp",
                  {{"det-pointer-hash", 8}, {"det-pointer-hash", 10}});
  expect_rule_is_live("det_pointer_hash.cpp", {"det-pointer-hash"});
}

TEST(Lint, DetUnorderedIterExactFindings) {
  expect_findings("det_unordered_iter.cpp",
                  {{"det-unordered-iter", 13}, {"det-unordered-iter", 18}});
  expect_rule_is_live("det_unordered_iter.cpp", {"det-unordered-iter"});
}

// ---- warm-path family -----------------------------------------------------

TEST(Lint, WarmNewExactFindings) {
  expect_findings("warm_new.cpp", {{"warm-new", 6}});
  expect_rule_is_live("warm_new.cpp", {"warm-new"});
}

TEST(Lint, WarmContainerConstructExactFindings) {
  expect_findings("warm_container_construct.cpp",
                  {{"warm-container-construct", 16},
                   {"warm-container-construct", 17}});
  expect_rule_is_live("warm_container_construct.cpp",
                      {"warm-container-construct"});
}

TEST(Lint, WarmStdFunctionExactFindings) {
  expect_findings("warm_std_function.cpp", {{"warm-std-function", 7}});
  expect_rule_is_live("warm_std_function.cpp", {"warm-std-function"});
}

TEST(Lint, WarmPushBackExactFindings) {
  expect_findings("warm_push_back.cpp", {{"warm-container-construct", 9},
                                         {"warm-push-back", 10},
                                         {"warm-container-construct", 11}});
  // Locals co-fire warm-container-construct; disable both to prove both.
  expect_rule_is_live("warm_push_back.cpp",
                      {"warm-push-back", "warm-container-construct"});
}

// ---- escapes and meta rules -----------------------------------------------

TEST(Lint, AllowEscapeSemantics) {
  // Lines 9 (same-line) and 12 (preceding-line) are suppressed; line 14's
  // escape suppresses det-rand but earns the meta finding; line 16 names a
  // rule that does not exist; line 18 has no escape and fires.
  expect_findings("allow_escape.cpp",
                  {{"lint-allow-without-justification", 14},
                   {"lint-allow-unknown-rule", 16},
                   {"det-rand", 18}});
}

TEST(Lint, MetaFindingsAreNotSuppressible) {
  // lint:allow(lint-allow-without-justification) must not silence itself.
  const std::vector<Finding> got = lint_source(
      "inline.cpp",
      "namespace procon::sim {\n"
      "int f() { return rand(); }  "
      "// lint:allow(det-rand,lint-allow-without-justification)\n"
      "}\n",
      Options{});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].rule, "lint-allow-without-justification");
  EXPECT_EQ(got[0].line, 2);
}

TEST(Lint, CleanFixtureHasNoFindings) {
  expect_findings("clean.cpp", {});
}

// ---- rule table -----------------------------------------------------------

TEST(Lint, EveryRuleHasAFamilyAndSummary) {
  ASSERT_FALSE(rules().empty());
  for (const RuleInfo& r : rules()) {
    EXPECT_FALSE(r.id.empty());
    EXPECT_FALSE(r.family.empty());
    EXPECT_FALSE(r.summary.empty());
    EXPECT_TRUE(is_rule_id(r.id));
  }
  EXPECT_FALSE(is_rule_id("not-a-rule"));
}

TEST(Lint, RuleTableRendersEveryRule) {
  const std::string table = render_rule_table();
  for (const RuleInfo& r : rules()) {
    EXPECT_NE(table.find("`" + std::string(r.id) + "`"), std::string::npos)
        << "rule " << r.id << " missing from --list-rules output";
  }
}

}  // namespace
}  // namespace procon::lint
