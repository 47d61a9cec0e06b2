// hemfuzz — differential verification driver.
//
// Usage:
//   hemfuzz [--seeds A..B|N] [--budget-ms M] [--mutations K] [--out-dir D]
//           [--inject KIND] [--no-shrink] [--sim-horizon T] [--jobs N]
//
// For every seed, synthesises a system (src/scenarios/synth), serialises it
// to `.hemcpa` text, derives K mutated variants (verify/shrink.hpp's
// mutate_config: priority/jitter/dmin/cet perturbations, task
// drop/duplicate, packed-frame surgery), and runs the full oracle registry
// (verify/differential.hpp) on every variant that parses: dominance,
// determinism, compilation, degradation.  Variants the engine itself
// rejects (analysis preconditions a lexical mutation can break, e.g.
// duplicate priorities) are counted and skipped — every oracle would see
// the same exception, which is agreement, not a differential.  An oracle
// that cannot examine a candidate (the simulator generates only
// StandardEventModel stimuli) prints a `skip` line with its reason and is
// counted on the summary line, as are the event-model nodes whose long-run
// rate had no closed form (`engine.rate_fallbacks`; the target is 0).
// Failures are bucketed by stable
// fingerprint; the first hit of each bucket is minimised with the ddmin
// shrinker (re-checking the failing oracle after every removal) and written
// to a reproducer file.
//
// Options:
//   --seeds A..B     inclusive seed range (default 1..20); a single number
//                    N means 1..N
//   --budget-ms M    wall-clock budget for the whole run; 0 = unlimited
//                    (default).  Checked between candidates, so the run
//                    finishes the candidate in flight.
//   --mutations K    mutated variants per seed (default 4)
//   --out-dir D      directory for reproducer files (default ".")
//   --inject KIND    replace every external model with a deliberately
//                    broken node (harness self-test; kinds listed by
//                    verify::broken_model_kinds).  Disables the lint
//                    cross-check: the text no longer describes the system.
//   --no-shrink      emit reproducers without minimising them
//   --sim-horizon T  simulated ticks for the dominance oracle (default 50000)
//   --jobs N         parallel arm of the determinism oracle (default 8)
//
// Exit status (unified table, docs/robustness.md):
//   0  every oracle on every candidate agreed
//   1  at least one oracle finding (reproducers written)
//   3  usage error
//
// Determinism: same arguments => same candidates, same findings, same
// bucket ids, same reproducer bytes.  CI runs two passes and diffs them.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "model/cpa_engine.hpp"
#include "model/textual_config.hpp"
#include "obs/obs.hpp"
#include "scenarios/synth.hpp"
#include "verify/differential.hpp"
#include "verify/shrink.hpp"

namespace {

using hem::verify::DiffInput;
using hem::verify::DiffOptions;
using hem::verify::Oracle;
using hem::verify::OracleFinding;
using hem::verify::OracleRegistry;
using hem::verify::OracleSkip;
using hem::verify::OracleSkipped;

struct Args {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 20;
  long budget_ms = 0;
  int mutations = 4;
  std::string out_dir = ".";
  std::string inject;
  bool shrink = true;
  hem::Time sim_horizon = 50'000;
  int jobs = 8;
};

int usage() {
  std::cerr << "usage: hemfuzz [--seeds A..B|N] [--budget-ms M] [--mutations K]\n"
               "               [--out-dir D] [--inject KIND] [--no-shrink]\n"
               "               [--sim-horizon T] [--jobs N]\n";
  return 3;
}

bool parse_seeds(const std::string& spec, Args& args) {
  try {
    const std::size_t dots = spec.find("..");
    if (dots == std::string::npos) {
      args.seed_lo = 1;
      args.seed_hi = std::stoull(spec);
    } else {
      args.seed_lo = std::stoull(spec.substr(0, dots));
      args.seed_hi = std::stoull(spec.substr(dots + 2));
    }
  } catch (const std::exception&) {
    return false;
  }
  return args.seed_lo >= 1 && args.seed_lo <= args.seed_hi;
}

/// Seed-indexed synthesiser parameters: small systems, varied shape, packed
/// COM frames on even seeds, part of the CPUs re-policied as EDF or round
/// robin on two seeds in three.  Pure arithmetic — no hidden RNG — so the
/// candidate set is reproducible from the seed range alone.
hem::scenarios::SynthParams params_for(std::uint64_t seed) {
  hem::scenarios::SynthParams p;
  p.seed = seed;
  p.resources = static_cast<int>(3 + seed % 6);
  p.tasks = p.resources * static_cast<int>(2 + seed % 3);
  p.layers = static_cast<int>(1 + seed % 3);
  p.utilization = 0.3 + 0.05 * static_cast<double>(seed % 9);
  p.packed_permille = seed % 2 == 0 ? 250 : 0;
  p.edf_permille = seed % 3 == 1 ? 400 : 0;
  p.rr_permille = seed % 3 == 2 ? 400 : 0;
  return p;
}

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Run one oracle with the registry's exception-to-finding convention.
std::vector<OracleFinding> run_one(const Oracle& oracle, const DiffInput& in,
                                   const DiffOptions& opts) {
  std::vector<OracleFinding> findings;
  try {
    oracle.check(in, opts, findings);
  } catch (const OracleSkipped&) {
    // not a finding
  } catch (const std::exception& e) {
    findings.push_back({oracle.name(), "exception", e.what()});
  }
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    try {
      if (arg == "--seeds") {
        const auto v = value();
        if (!v || !parse_seeds(*v, args)) return usage();
      } else if (arg == "--budget-ms") {
        const auto v = value();
        if (!v) return usage();
        args.budget_ms = std::stol(*v);
      } else if (arg == "--mutations") {
        const auto v = value();
        if (!v) return usage();
        args.mutations = std::stoi(*v);
      } else if (arg == "--out-dir") {
        const auto v = value();
        if (!v) return usage();
        args.out_dir = *v;
      } else if (arg == "--inject") {
        const auto v = value();
        if (!v) return usage();
        args.inject = *v;
      } else if (arg == "--no-shrink") {
        args.shrink = false;
      } else if (arg == "--sim-horizon") {
        const auto v = value();
        if (!v) return usage();
        args.sim_horizon = std::stol(*v);
      } else if (arg == "--jobs") {
        const auto v = value();
        if (!v) return usage();
        args.jobs = std::stoi(*v);
      } else {
        std::cerr << "error: unknown flag '" << arg << "'\n";
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.mutations < 0 || args.jobs < 1 || args.sim_horizon < 1) return usage();
  if (!args.inject.empty()) {
    try {
      (void)hem::verify::make_broken_model(args.inject);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << " (kinds:";
      for (const std::string& kind : hem::verify::broken_model_kinds()) std::cerr << ' ' << kind;
      std::cerr << ")\n";
      return 3;
    }
  }

  DiffOptions opts;
  opts.sim_horizon = args.sim_horizon;
  opts.wide_jobs = args.jobs;
  const OracleRegistry registry = OracleRegistry::with_builtin_oracles();

  // Parse + optional fault injection; nullopt when the text does not
  // describe a valid system (mutations are lexical and may overshoot).
  const auto realise = [&](const std::string& text) -> std::optional<hem::cpa::System> {
    try {
      std::istringstream in(text);
      hem::cpa::System system = hem::cpa::parse_system_config(in).system;
      if (!args.inject.empty()) hem::verify::inject_broken_models(system, args.inject);
      return system;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  };

  const auto start = std::chrono::steady_clock::now();
  const auto budget_exhausted = [&] {
    if (args.budget_ms <= 0) return false;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                              start);
    return elapsed.count() >= args.budget_ms;
  };

  std::map<std::uint64_t, OracleFinding> buckets;  // first hit per bucket
  long candidates = 0;
  long parse_rejects = 0;
  long engine_rejects = 0;
  long oracle_skips = 0;
  bool out_of_budget = false;

  for (std::uint64_t seed = args.seed_lo; seed <= args.seed_hi && !out_of_budget; ++seed) {
    std::string base_text;
    try {
      base_text =
          hem::scenarios::to_config_text(hem::scenarios::build_synth_system(params_for(seed)));
    } catch (const std::exception& e) {
      std::cerr << "error: seed " << seed << " failed to synthesise: " << e.what() << "\n";
      return 3;  // the generator/serialiser pair must always produce valid text
    }

    for (int variant = 0; variant <= args.mutations; ++variant) {
      if (budget_exhausted()) {
        out_of_budget = true;
        break;
      }
      const std::string text =
          variant == 0 ? base_text
                       : hem::verify::mutate_config(base_text, seed * 1000 + variant);
      ++candidates;
      const std::optional<hem::cpa::System> system = realise(text);
      if (!system) {
        ++parse_rejects;
        continue;
      }
      // Pre-flight: a candidate the engine rejects outright (a mutation can
      // produce parseable text that violates an analysis precondition, e.g.
      // duplicate priorities on one resource) is not a differential target —
      // every oracle arm would throw the same way.  Skipped under --inject,
      // where engine exceptions on broken models ARE the expected signal.
      if (args.inject.empty()) {
        try {
          hem::cpa::EngineOptions preflight;
          preflight.jobs = 1;
          preflight.max_iterations = opts.max_iterations;
          (void)hem::cpa::CpaEngine(*system, preflight).run();
        } catch (const std::exception&) {
          ++engine_rejects;
          continue;
        }
      }
      DiffInput input;
      input.system = &*system;
      if (args.inject.empty()) input.config_text = text;

      std::vector<OracleSkip> skips;
      const std::vector<OracleFinding> findings = registry.run(input, opts, &skips);
      for (const OracleSkip& skip : skips) {
        ++oracle_skips;
        std::cout << "skip oracle=" << skip.oracle << " seed=" << seed << " variant=" << variant
                  << " reason=" << skip.reason << "\n";
      }
      for (const OracleFinding& finding : findings) {
        const std::uint64_t bucket = finding.bucket();
        if (buckets.count(bucket) != 0) continue;
        buckets.emplace(bucket, finding);

        std::string repro_text = text;
        if (args.shrink) {
          const auto still_fails = [&](const std::string& candidate) {
            const std::optional<hem::cpa::System> shrunk = realise(candidate);
            if (!shrunk) return false;
            DiffInput sin;
            sin.system = &*shrunk;
            if (args.inject.empty()) sin.config_text = candidate;
            const Oracle* oracle = registry.find(finding.oracle);
            if (oracle == nullptr) return false;
            for (const OracleFinding& f : run_one(*oracle, sin, opts))
              if (f.bucket() == bucket) return true;
            return false;
          };
          repro_text = hem::verify::shrink_config(text, still_fails).text;
        }

        const std::filesystem::path path =
            std::filesystem::path(args.out_dir) /
            ("repro-" + finding.oracle + "-" + hex16(bucket) + ".hemcpa");
        std::error_code ec;
        std::filesystem::create_directories(args.out_dir, ec);
        std::ofstream repro(path);
        repro << "# hemfuzz reproducer\n"
              << "# oracle: " << finding.oracle << "\n"
              << "# fingerprint: " << finding.fingerprint << "\n"
              << "# bucket: " << hex16(bucket) << "\n"
              << "# seed: " << seed << " variant: " << variant << "\n";
        if (!args.inject.empty()) repro << "# inject: " << args.inject << "\n";
        // A detail may span several lines (contract violations do); each
        // one stays a comment so the reproducer still parses.
        repro << "# detail: ";
        for (const char c : finding.detail) repro << c << (c == '\n' ? "# " : "");
        repro << "\n" << repro_text;

        std::cout << "bucket=" << hex16(bucket) << " oracle=" << finding.oracle
                  << " fingerprint=" << finding.fingerprint << " seed=" << seed
                  << " variant=" << variant << " repro=" << path.string() << "\n";
      }
    }
  }

  std::cout << "hemfuzz: " << candidates << " candidate(s) from seeds " << args.seed_lo << ".."
            << args.seed_hi << ", " << parse_rejects << " parse reject(s), " << engine_rejects
            << " engine reject(s), " << oracle_skips << " oracle skip(s), " << buckets.size()
            << " failure bucket(s), "
            << hem::obs::registry().counter("engine.rate_fallbacks").value()
            << " rate fallback(s)"
            << (out_of_budget ? " [budget exhausted]" : "") << "\n";
  return buckets.empty() ? 0 : 1;
}
