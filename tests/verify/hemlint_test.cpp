// Tests of the hemlint library (src/verify/lint.hpp): every HL*** code
// fires on a seeded-bad configuration, clean configurations produce no
// diagnostics, and severities/exit codes follow the documented convention.

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "daemon/protocol.hpp"
#include "verify/lint.hpp"

namespace hem::verify {
namespace {

LintResult lint(const std::string& config) {
  std::istringstream in(config);
  return lint_config(in);
}

/// The diagnostic with `code`, or nullptr.
const Diagnostic* find(const LintResult& result, const std::string& code) {
  const auto it = std::find_if(result.diagnostics.begin(), result.diagnostics.end(),
                               [&](const Diagnostic& d) { return d.code == code; });
  return it == result.diagnostics.end() ? nullptr : &*it;
}

std::string dump(const LintResult& result) {
  std::string out;
  for (const auto& d : result.diagnostics) out += format(d) + "\n";
  return out;
}

TEST(Hemlint, CleanConfigHasNoDiagnostics) {
  const auto result = lint(R"(
resource CPU1 spp
resource BUS can
source s1 periodic period=250
source s2 sem period=450 jitter=30
source s3 periodic period=1000
task T1 resource=CPU1 priority=1 cet=24
task F1 resource=BUS priority=1 cet=4
task T2 resource=CPU1 priority=2 cet=12
activate T1 from=s1
packed F1 inputs=s2:trig,s3:pend
unpack T2 frame=F1 index=1
deadline T1 100
option jobs=2
)");
  EXPECT_TRUE(result.parse_ok);
  EXPECT_TRUE(result.diagnostics.empty()) << dump(result);
  EXPECT_EQ(lint_exit_code(result, /*werror=*/true), 0);
}

TEST(Hemlint, HL000ParseErrorIsPositioned) {
  const auto result = lint("resource CPU1 spp\nbogus line here\n");
  EXPECT_FALSE(result.parse_ok);
  const Diagnostic* d = find(result, "HL000");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_TRUE(d->is_error());
  EXPECT_EQ(d->line, 2);
  EXPECT_EQ(d->col, 1);
  EXPECT_EQ(lint_exit_code(result, /*werror=*/false), 1);
}

TEST(Hemlint, HL001UtilizationAboveOne) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=10
task T1 resource=CPU1 priority=1 cet=20
activate T1 from=s1
)");
  ASSERT_TRUE(result.parse_ok);
  const Diagnostic* d = find(result, "HL001");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_TRUE(d->is_error());
  EXPECT_EQ(d->line, 2);  // positioned at the resource declaration
  EXPECT_NE(d->message.find("2.00"), std::string::npos) << d->message;
}

TEST(Hemlint, HL002DuplicatePriority) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=100
source s2 periodic period=100
task T1 resource=CPU1 priority=3 cet=5
task T2 resource=CPU1 priority=3 cet=5
activate T1 from=s1
activate T2 from=s2
)");
  ASSERT_TRUE(result.parse_ok);
  const Diagnostic* d = find(result, "HL002");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 6);  // the second task with priority 3
  EXPECT_NE(d->message.find("engine rejects"), std::string::npos) << d->message;
  EXPECT_EQ(lint_exit_code(result, /*werror=*/false), 0);
  EXPECT_EQ(lint_exit_code(result, /*werror=*/true), 1);
}

TEST(Hemlint, HL003JitterAbovePeriod) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 sem period=100 jitter=250
task T1 resource=CPU1 priority=1 cet=5
activate T1 from=s1
)");
  ASSERT_TRUE(result.parse_ok);
  const Diagnostic* d = find(result, "HL003");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 3);
  EXPECT_GT(d->col, 0);  // the jitter= token, not the line start
}

TEST(Hemlint, HL004DminAbovePeriod) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 sem period=100 dmin=200
task T1 resource=CPU1 priority=1 cet=5
activate T1 from=s1
)");
  EXPECT_FALSE(result.parse_ok);  // the SEM is unconstructible
  const Diagnostic* d = find(result, "HL004");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_TRUE(d->is_error());
  EXPECT_EQ(d->line, 3);
  // No generic duplicate for the same failure.
  EXPECT_EQ(find(result, "HL000"), nullptr) << dump(result);
}

TEST(Hemlint, HL005UnreferencedSource) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=100
source unused periodic period=50
task T1 resource=CPU1 priority=1 cet=5
activate T1 from=s1
)");
  ASSERT_TRUE(result.parse_ok);
  const Diagnostic* d = find(result, "HL005");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 4);
  EXPECT_NE(d->message.find("unused"), std::string::npos);
}

TEST(Hemlint, HL006AndHL007CycleAndDownstream) {
  const auto result = lint(R"(
resource CPU1 spp
task T1 resource=CPU1 priority=1 cet=5
task T2 resource=CPU1 priority=2 cet=5
task T3 resource=CPU1 priority=3 cet=5
activate T1 from=T2
activate T2 from=T1
activate T3 from=T1
)");
  ASSERT_TRUE(result.parse_ok) << dump(result);
  const Diagnostic* cycle = find(result, "HL007");
  ASSERT_NE(cycle, nullptr) << dump(result);
  EXPECT_TRUE(cycle->is_error());
  EXPECT_NE(cycle->message.find("T1"), std::string::npos);
  EXPECT_NE(cycle->message.find("T2"), std::string::npos);
  const Diagnostic* downstream = find(result, "HL006");
  ASSERT_NE(downstream, nullptr) << dump(result);
  EXPECT_TRUE(downstream->is_error());
  EXPECT_NE(downstream->message.find("T3"), std::string::npos);
  // Exactly one HL007 for the two-task cycle, not one per member.
  EXPECT_EQ(std::count_if(result.diagnostics.begin(), result.diagnostics.end(),
                          [](const Diagnostic& d) { return d.code == "HL007"; }),
            1)
      << dump(result);
}

TEST(Hemlint, HL008PackWithoutTimerOrTrigger) {
  const auto result = lint(R"(
resource BUS can
resource CPU1 spp
source s1 periodic period=100
task F1 resource=BUS priority=1 cet=4
task T1 resource=CPU1 priority=1 cet=5
packed F1 inputs=s1:pend
unpack T1 frame=F1 index=0
)");
  ASSERT_TRUE(result.parse_ok) << dump(result);
  const Diagnostic* d = find(result, "HL008");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_TRUE(d->is_error());
  EXPECT_NE(d->message.find("F1"), std::string::npos);
}

TEST(Hemlint, HL009StrictWithFaultInjection) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=100
task T1 resource=CPU1 priority=1 cet=5
activate T1 from=s1
option strict=on
option sim_drop=0.25
)");
  ASSERT_TRUE(result.parse_ok) << dump(result);
  const Diagnostic* d = find(result, "HL009");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 6);  // positioned at the strict option
}

TEST(Hemlint, HL010DeadlineBelowWcet) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=100
task T1 resource=CPU1 priority=1 cet=10
activate T1 from=s1
deadline T1 5
)");
  ASSERT_TRUE(result.parse_ok);
  const Diagnostic* d = find(result, "HL010");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_TRUE(d->is_error());
  EXPECT_EQ(d->line, 6);
}

TEST(Hemlint, HL001UsesTheExactRateOfJitteredSources) {
  // Exact load 2 * 40653/100000 + 230/8000 + 76/800 = 0.937.  A 10^6-tick
  // rate sample charges each jittered 40653-tick task 11 events and read
  // 1.018; the engine analyses this resource to converged bounds.
  const auto result = lint(R"(
resource rr0 rr
source s0 sem period=100000 jitter=9752
source s2 periodic period=8000
source s3 periodic period=800
task a resource=rr0 priority=0 cet=20326:40653 slot=40653
task b resource=rr0 priority=2 cet=115:230 slot=230
task c resource=rr0 priority=3 cet=38:76 slot=76
task d resource=rr0 priority=0 cet=20326:40653 slot=40653
activate a from=s0
activate b from=s2
activate c from=s3
activate d from=s0
)");
  ASSERT_TRUE(result.parse_ok);
  EXPECT_EQ(find(result, "HL001"), nullptr) << dump(result);
}

TEST(Hemlint, HL001ToleratesAnExcessBelowTheSharedTolerance) {
  // Load 1 + 3.3e-10 (examples/divergent_fixpoint.hemcpa): below the 1e-9
  // tolerance the engine's pre-check shares, so neither flags it.
  const auto result = lint(R"(
resource R spp
source s periodic period=3000000000
task H resource=R priority=1 cet=3000000001
activate H from=s
)");
  ASSERT_TRUE(result.parse_ok);
  EXPECT_EQ(find(result, "HL001"), nullptr) << dump(result);
}

TEST(Hemlint, RatePropagatesThroughGraphForUtilization) {
  // The overload is on a DOWNSTREAM resource: s1 at period 10 activates T1
  // (cheap, on CPU1), whose output activates T2 on CPU2 with cet 20 — flat
  // rate propagation must carry 1/10 through T1's output.
  const auto result = lint(R"(
resource CPU1 spp
resource CPU2 spp
source s1 periodic period=10
task T1 resource=CPU1 priority=1 cet=1
task T2 resource=CPU2 priority=1 cet=20
activate T1 from=s1
activate T2 from=T1
)");
  ASSERT_TRUE(result.parse_ok);
  const Diagnostic* d = find(result, "HL001");
  ASSERT_NE(d, nullptr) << dump(result);
  EXPECT_NE(d->message.find("CPU2"), std::string::npos);
}

TEST(Hemlint, PendingUnpackRateIsCappedByFrameRate) {
  // s_slow (period 1000) pends into a frame timed at period 10: the
  // receiver is charged the SIGNAL rate (1/1000), not the frame rate —
  // cet=50 would overload at frame rate but is fine at signal rate.
  const auto result = lint(R"(
resource BUS can
resource CPU1 spp
source s_slow periodic period=1000
task F1 resource=BUS priority=1 cet=1
task T1 resource=CPU1 priority=1 cet=50
packed F1 inputs=s_slow:pend timer=10
unpack T1 frame=F1 index=0
)");
  ASSERT_TRUE(result.parse_ok);
  EXPECT_EQ(find(result, "HL001"), nullptr) << dump(result);
}

TEST(Hemlint, DiagnosticsAreSortedBySourcePosition) {
  const auto result = lint(R"(
resource CPU1 spp
source unused periodic period=50
source s1 sem period=100 jitter=300
task T1 resource=CPU1 priority=1 cet=5
activate T1 from=s1
deadline T1 2
)");
  ASSERT_TRUE(result.parse_ok);
  ASSERT_GE(result.diagnostics.size(), 3u) << dump(result);
  for (std::size_t i = 1; i < result.diagnostics.size(); ++i)
    EXPECT_LE(result.diagnostics[i - 1].line, result.diagnostics[i].line) << dump(result);
  EXPECT_EQ(result.count(LintSeverity::kWarning), 2u) << dump(result);
  EXPECT_EQ(result.count(LintSeverity::kError), 1u) << dump(result);
}

TEST(HemlintJson, FieldsMirrorTheTextModeOutcome) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=100
source unused periodic period=50
task T1 resource=CPU1 priority=1 cet=10
activate T1 from=s1
deadline T1 2
)");
  ASSERT_TRUE(result.parse_ok);
  ASSERT_EQ(result.count(LintSeverity::kWarning), 1u) << dump(result);  // HL005
  ASSERT_EQ(result.count(LintSeverity::kError), 1u) << dump(result);    // HL010

  const std::string json = write_lint_json(result, "sys.hemcpa", /*werror=*/false);
  EXPECT_EQ(daemon::json_find(json, "file"), "sys.hemcpa");
  EXPECT_EQ(daemon::json_find(json, "parse_ok"), "true");
  EXPECT_EQ(daemon::json_find(json, "warnings"), "1");
  EXPECT_EQ(daemon::json_find(json, "errors"), "1");
  // `rejected` must track fails(werror), i.e. the text mode's exit code.
  EXPECT_EQ(daemon::json_find(json, "rejected") == "true",
            lint_exit_code(result, /*werror=*/false) != 0);
  EXPECT_NE(json.find("\"HL005\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"HL010\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  // One object per file, one line each (JSONL): no embedded newlines.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(HemlintJson, RejectedTracksWerror) {
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=100
source unused periodic period=50
task T1 resource=CPU1 priority=1 cet=10
activate T1 from=s1
)");
  ASSERT_TRUE(result.parse_ok);
  ASSERT_EQ(result.count(LintSeverity::kWarning), 1u) << dump(result);
  ASSERT_EQ(result.count(LintSeverity::kError), 0u) << dump(result);
  EXPECT_EQ(daemon::json_find(write_lint_json(result, "a", false), "rejected"), "false");
  EXPECT_EQ(daemon::json_find(write_lint_json(result, "a", true), "rejected"), "true");
}

TEST(HemlintJson, EscapesQuotesAndBackslashes) {
  // Entity names are whitespace-delimited tokens, so quotes and backslashes
  // are legal in them and flow into diagnostic messages (HL005 names the
  // unreferenced source); the JSON rendering must escape both, and the file
  // name goes through the same escaper.
  const auto result = lint(R"(
resource CPU1 spp
source s1 periodic period=100
source un"us\ed periodic period=50
task T1 resource=CPU1 priority=1 cet=10
activate T1 from=s1
)");
  ASSERT_TRUE(result.parse_ok);
  ASSERT_NE(find(result, "HL005"), nullptr) << dump(result);
  const std::string json = write_lint_json(result, "dir\\sys \"v2\".hemcpa", false);
  EXPECT_NE(json.find("un\\\"us\\\\ed"), std::string::npos) << json;
  EXPECT_NE(json.find("dir\\\\sys \\\"v2\\\".hemcpa"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(HemlintJson, ParseFailureStillRendersDiagnostics) {
  const auto result = lint("resource CPU1 spp\nbogus line here\n");
  ASSERT_FALSE(result.parse_ok);
  const std::string json = write_lint_json(result, "broken.hemcpa", false);
  EXPECT_EQ(daemon::json_find(json, "parse_ok"), "false");
  EXPECT_EQ(daemon::json_find(json, "rejected"), "true");
  EXPECT_NE(json.find("\"HL000\""), std::string::npos) << json;
}

TEST(Hemlint, FormatRendersGccStyle) {
  const Diagnostic d{LintSeverity::kError, 12, 7, "HL001", "too hot"};
  EXPECT_EQ(format(d), "12:7: error: too hot [HL001]");
  EXPECT_EQ(format(d, "sys.hemcpa"), "sys.hemcpa:12:7: error: too hot [HL001]");
  const Diagnostic unpositioned{LintSeverity::kWarning, 0, 0, "", "hm"};
  EXPECT_EQ(format(unpositioned), "warning: hm");
}

}  // namespace
}  // namespace hem::verify
