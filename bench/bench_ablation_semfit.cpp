// Ablation A4: curve propagation vs. classic SEM-parameter propagation.
//
// SymTA/S-style tools re-fit every output stream to the (P, J, dmin)
// triple; this library propagates exact curves.  We quantify the cost of
// the fit on the paper system: receiver WCRTs with (a) exact curves,
// (b) every stream re-fitted to a SEM at each propagation step, for both
// the flat and the HEM receiver models.

#include <cstdio>

#include "core/sem_fit.hpp"
#include "scenarios/paper_system.hpp"
#include "sched/local_analysis.hpp"

namespace {

using namespace hem;

/// Run the CPU1 analysis with the given receiver activation models.
std::vector<Time> cpu_wcrts(const std::vector<ModelPtr>& activations) {
  const scenarios::PaperSystemParams p;
  sched::LocalAnalysis cpu(sched::Policy::kSppPreemptive,
                           {
                               sched::TaskParams{"T1", 1, sched::ExecutionTime(p.t1_cet),
                                                 activations[0]},
                               sched::TaskParams{"T2", 2, sched::ExecutionTime(p.t2_cet),
                                                 activations[1]},
                               sched::TaskParams{"T3", 3, sched::ExecutionTime(p.t3_cet),
                                                 activations[2]},
                           });
  std::vector<Time> out;
  for (const auto& r : cpu.analyze_all()) out.push_back(r.wcrt);
  return out;
}

std::vector<ModelPtr> fit_all(const std::vector<ModelPtr>& models) {
  std::vector<ModelPtr> out;
  for (const auto& m : models) out.push_back(fit_sem(*m));
  return out;
}

}  // namespace

int main() {
  using namespace hem;

  const auto results = scenarios::analyze_paper_system();

  const std::vector<ModelPtr> hem_curves = results.f1_unpacked;
  const std::vector<ModelPtr> hem_fitted = fit_all(hem_curves);
  const std::vector<ModelPtr> flat_curves(3, results.f1_total);
  const std::vector<ModelPtr> flat_fitted = fit_all(flat_curves);

  const auto hem_exact = cpu_wcrts(hem_curves);
  const auto hem_sem = cpu_wcrts(hem_fitted);
  const auto flat_exact = cpu_wcrts(flat_curves);
  const auto flat_sem = cpu_wcrts(flat_fitted);

  std::puts("=== Ablation A4: curve propagation vs SEM re-fitting (paper system) ===");
  std::printf("%-6s %12s %12s %12s %12s\n", "Task", "HEM curves", "HEM+SEMfit", "flat curves",
              "flat+SEMfit");
  const char* names[] = {"T1", "T2", "T3"};
  for (int i = 0; i < 3; ++i) {
    std::printf("%-6s %12lld %12lld %12lld %12lld\n", names[i],
                static_cast<long long>(hem_exact[i]), static_cast<long long>(hem_sem[i]),
                static_cast<long long>(flat_exact[i]), static_cast<long long>(flat_sem[i]));
  }

  std::puts("\nFitted parameters of the unpacked streams:");
  for (int i = 0; i < 3; ++i)
    std::printf("  %s: %s  ->  %s\n", names[i], hem_curves[i]->describe().c_str(),
                hem_fitted[i]->describe().c_str());

  std::puts("\nReading: the SEM fit is exact for the (nearly periodic) unpacked");
  std::puts("streams but loses precision on the OR-shaped total frame stream -");
  std::puts("hierarchical models and curve propagation attack different losses.");
  return 0;
}
