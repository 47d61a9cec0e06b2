// Tests of the differential verification subsystem (verify/differential.hpp):
// the built-in oracle registry stays clean on healthy systems (the paper
// example and seeded synth systems, plain and packed), every deliberately
// broken model kind is caught, bucket ids are stable across runs, and the
// ddmin shrinker reduces a failing config while preserving its bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/delta_function_model.hpp"
#include "model/cpa_engine.hpp"
#include "model/textual_config.hpp"
#include "scenarios/synth.hpp"
#include "verify/differential.hpp"
#include "verify/shrink.hpp"

namespace hem::verify {
namespace {

using cpa::ParsedSystem;
using cpa::System;

scenarios::SynthParams small_params(std::uint64_t seed, int packed_permille = 0) {
  scenarios::SynthParams p;
  p.resources = 4;
  p.tasks = 14;
  p.layers = 2;
  p.seed = seed;
  p.packed_permille = packed_permille;
  return p;
}

DiffOptions fast_options() {
  DiffOptions opts;
  opts.sim_horizon = 20'000;
  opts.probe_points = 8;
  opts.checker_horizon = 16;
  return opts;
}

std::string dump(const std::vector<OracleFinding>& findings) {
  std::ostringstream os;
  for (const OracleFinding& f : findings) {
    os << f.oracle << " / " << f.fingerprint << " : " << f.detail << "\n";
  }
  return os.str();
}

TEST(OracleRegistryTest, BuiltinFamiliesPresentInOrder) {
  const OracleRegistry registry = OracleRegistry::with_builtin_oracles();
  ASSERT_EQ(registry.oracles().size(), 4u);
  EXPECT_EQ(registry.oracles()[0]->name(), "dominance");
  EXPECT_EQ(registry.oracles()[1]->name(), "determinism");
  EXPECT_EQ(registry.oracles()[2]->name(), "compilation");
  EXPECT_EQ(registry.oracles()[3]->name(), "degradation");
  EXPECT_NE(registry.find("dominance"), nullptr);
  EXPECT_EQ(registry.find("no-such-oracle"), nullptr);
}

TEST(OracleRegistryTest, CleanOnHealthySynthSystems) {
  const OracleRegistry registry = OracleRegistry::with_builtin_oracles();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const System sys =
        scenarios::build_synth_system(small_params(seed, seed % 2 == 0 ? 300 : 0));
    const std::string text = scenarios::to_config_text(sys);
    DiffInput in;
    in.system = &sys;
    in.config_text = text;
    const auto findings = registry.run(in, fast_options());
    EXPECT_TRUE(findings.empty()) << "seed " << seed << ":\n" << dump(findings);
  }
}

TEST(OracleRegistryTest, DominanceSkipIsCountedWithTheSimulatorsReason) {
  // The simulator generates StandardEventModel stimuli only; a delta-
  // function external is skipped, and the skip says why.
  System sys;
  const auto cpu = sys.add_resource({"cpu", cpa::Policy::kSppPreemptive});
  const auto t = sys.add_task({"t", cpu, 1, sched::ExecutionTime(2)});
  sys.activate_external(t, DeltaFunctionModel::periodic_burst(2, 5, 100));
  DiffInput in;
  in.system = &sys;
  std::vector<OracleSkip> skips;
  const auto findings =
      OracleRegistry::with_builtin_oracles().run(in, fast_options(), &skips);
  EXPECT_TRUE(findings.empty()) << dump(findings);
  ASSERT_EQ(skips.size(), 1u);
  EXPECT_EQ(skips[0].oracle, "dominance");
  EXPECT_NE(skips[0].reason.find("StandardEventModel"), std::string::npos) << skips[0].reason;
}

TEST(OracleRegistryTest, DominanceChecksRoundRobinAndEdfCpus) {
  const OracleRegistry registry = OracleRegistry::with_builtin_oracles();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    scenarios::SynthParams p = small_params(seed, seed % 2 == 0 ? 300 : 0);
    p.rr_permille = 500;
    p.edf_permille = 500;
    const System sys = scenarios::build_synth_system(p);
    const std::string text = scenarios::to_config_text(sys);
    DiffInput in;
    in.system = &sys;
    in.config_text = text;
    std::vector<OracleSkip> skips;
    const auto findings = registry.run(in, fast_options(), &skips);
    EXPECT_TRUE(skips.empty()) << "seed " << seed << ": " << skips.front().reason;
    EXPECT_TRUE(findings.empty()) << "seed " << seed << ":\n" << dump(findings);
  }
}

TEST(OracleRegistryTest, FindingsAreDeterministicAcrossRuns) {
  const OracleRegistry registry = OracleRegistry::with_builtin_oracles();
  System sys = scenarios::build_synth_system(small_params(3));
  ASSERT_GT(inject_broken_models(sys, "ax3"), 0);
  DiffInput in;
  in.system = &sys;
  const auto a = registry.run(in, fast_options());
  const auto b = registry.run(in, fast_options());
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].oracle, b[i].oracle);
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
    EXPECT_EQ(a[i].bucket(), b[i].bucket());
  }
}

TEST(OracleRegistryTest, EveryBrokenModelKindIsCaught) {
  const OracleRegistry registry = OracleRegistry::with_builtin_oracles();
  for (const std::string& kind : broken_model_kinds()) {
    System sys = scenarios::build_synth_system(small_params(2));
    ASSERT_GT(inject_broken_models(sys, kind), 0) << kind;
    DiffInput in;
    in.system = &sys;
    const auto findings = registry.run(in, fast_options());
    EXPECT_FALSE(findings.empty()) << "broken kind '" << kind << "' not caught";
  }
}

std::vector<OracleFinding> degradation_findings(const std::string& text) {
  std::istringstream is(text);
  const ParsedSystem parsed = cpa::parse_system_config(is);
  DiffInput in;
  in.system = &parsed.system;
  in.config_text = text;
  std::vector<OracleFinding> out;
  OracleRegistry::with_builtin_oracles().find("degradation")->check(in, fast_options(), out);
  return out;
}

TEST(OracleRegistryTest, Hl001CheckSkipsResourcesFedByFallbackBounds) {
  // A one-tick TDMA slot in a 4288-tick cycle: A's busy window diverges at
  // long-run load 0.01, and A's fallback output loads the CPU at 2.0.  The
  // engine reports overload on CPU; hemlint, which propagates the source
  // rate (CPU load 0.02), stays silent.  Both are right.
  auto findings = degradation_findings(R"(
source s1 periodic period=1000
resource BUS tdma cycle=4288
resource CPU spp
task A resource=BUS priority=1 cet=10 slot=1
task B resource=CPU priority=1 cet=20
activate A from=s1
activate B from=A
)");
  EXPECT_TRUE(findings.empty()) << dump(findings);

  // The other direction: HL001 flags both CPUs at source rate, but the
  // overloaded producer's fallback output loads CPU2 at only 0.75.
  findings = degradation_findings(R"(
source s1 periodic period=10
resource CPU1 spp
resource CPU2 spp
task A resource=CPU1 priority=1 cet=20
task B resource=CPU2 priority=1 cet=15
activate A from=s1
activate B from=A
)");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(OracleRegistryTest, BucketsSeparateOracleFamilies) {
  OracleFinding a{"dominance", "wcrt:T3", ""};
  OracleFinding b{"compilation", "wcrt:T3", ""};
  OracleFinding c{"dominance", "wcrt:T3", "different detail, same bucket"};
  EXPECT_NE(a.bucket(), b.bucket());
  EXPECT_EQ(a.bucket(), c.bucket());
}

TEST(BrokenModelTest, UnknownKindThrows) {
  EXPECT_THROW((void)make_broken_model("no-such-kind"), std::invalid_argument);
}

TEST(ReportFingerprintTest, InsensitiveToJobCountAndIncremental) {
  const System sys = scenarios::build_synth_system(small_params(5, 300));
  cpa::EngineOptions base;
  base.jobs = 1;
  const std::uint64_t cold = report_fingerprint(cpa::CpaEngine(sys, base).run());
  cpa::EngineOptions wide = base;
  wide.jobs = 4;
  EXPECT_EQ(cold, report_fingerprint(cpa::CpaEngine(sys, wide).run()));
  cpa::EngineOptions no_inc = base;
  no_inc.incremental = false;
  EXPECT_EQ(cold, report_fingerprint(cpa::CpaEngine(sys, no_inc).run()));
}

TEST(ReportFingerprintTest, SensitiveToTheSystem) {
  const System a = scenarios::build_synth_system(small_params(1));
  const System b = scenarios::build_synth_system(small_params(2));
  cpa::EngineOptions opts;
  opts.jobs = 1;
  EXPECT_NE(report_fingerprint(cpa::CpaEngine(a, opts).run()),
            report_fingerprint(cpa::CpaEngine(b, opts).run()));
}

// --- shrinker ---------------------------------------------------------------

// A config whose failure is localised to one task; the predicate marks any
// candidate still containing that task as "failing", mimicking how hemfuzz
// re-runs the violated oracle on shrink candidates.
TEST(ShrinkConfigTest, RemovesEverythingUnrelatedToTheFailure) {
  const System sys = scenarios::build_synth_system(small_params(3, 300));
  const std::string text = scenarios::to_config_text(sys);
  // Pick a layer-0 task name out of the text: first `task ` statement.
  std::istringstream lines(text);
  std::string needle;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("task ", 0) == 0) {
      std::istringstream t(line);
      std::string kw;
      t >> kw >> needle;
      break;
    }
  }
  ASSERT_FALSE(needle.empty());
  const auto still_fails = [&](const std::string& candidate) {
    std::istringstream in(candidate);
    try {
      (void)cpa::parse_system_config(in);
    } catch (const std::exception&) {
      return false;  // must stay parseable
    }
    return candidate.find("task " + needle + " ") != std::string::npos;
  };
  ASSERT_TRUE(still_fails(text));
  const ShrinkResult result = shrink_config(text, still_fails);
  EXPECT_TRUE(result.changed);
  EXPECT_TRUE(still_fails(result.text));
  EXPECT_LT(result.text.size(), text.size());
  // The shrunk config should be down to very few statements: the needle
  // task, its resource, and its activation source.
  int resources = 0;
  int tasks = 0;
  std::istringstream shrunk(result.text);
  for (std::string line; std::getline(shrunk, line);) {
    if (line.rfind("resource ", 0) == 0) ++resources;
    if (line.rfind("task ", 0) == 0) ++tasks;
  }
  EXPECT_LE(resources, 1);
  EXPECT_LE(tasks, 1);
}

TEST(ShrinkConfigTest, ReportsNoChangeWhenNothingCanGo) {
  const std::string text =
      "resource CPU spp\n"
      "source s periodic period=100\n"
      "task T resource=CPU priority=1 cet=10\n"
      "activate T from=s\n";
  const auto still_fails = [&](const std::string& candidate) {
    std::istringstream in(candidate);
    try {
      (void)cpa::parse_system_config(in);
    } catch (const std::exception&) {
      return false;
    }
    return candidate.find("task T ") != std::string::npos;
  };
  const ShrinkResult result = shrink_config(text, still_fails);
  EXPECT_TRUE(still_fails(result.text));
}

TEST(MutateConfigTest, DeterministicAndUsuallyParseable) {
  const System sys = scenarios::build_synth_system(small_params(6, 300));
  const std::string base = scenarios::to_config_text(sys);
  int parsed_ok = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string a = mutate_config(base, seed);
    const std::string b = mutate_config(base, seed);
    EXPECT_EQ(a, b) << "mutation must be a pure function of (text, seed)";
    std::istringstream in(a);
    try {
      (void)cpa::parse_system_config(in);
      ++parsed_ok;
    } catch (const std::exception&) {
      // Some mutations legitimately produce rejected configs (duplicate
      // priorities on CAN, sem dmin > period); hemfuzz just skips those.
    }
  }
  EXPECT_GT(parsed_ok, 10) << "mutator output should mostly stay parseable";
}

}  // namespace
}  // namespace hem::verify
