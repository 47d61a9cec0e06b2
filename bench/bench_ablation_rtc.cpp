// Ablation A6: comparison with the OTHER compositional approach the paper
// cites - Real-Time Calculus (Thiele et al. [11]).  The same CPU1 task
// sets (flat and HEM receiver models) are analysed with (a) the exact
// busy-window SPP analysis and (b) an RTC fixed-priority GPC chain.
//
// Expected shape: both agree on who is schedulable; the busy-window bound
// is tighter (it is exact for SPP), while RTC composes more generally.
// The HEM-vs-flat gap dwarfs the analysis-method gap: choosing the right
// STREAM model matters more than the local analysis flavour.

#include <cstdio>

#include "rtc/gpc.hpp"
#include "scenarios/paper_system.hpp"
#include "sched/local_analysis.hpp"

int main() {
  using namespace hem;

  const auto results = scenarios::analyze_paper_system();
  const scenarios::PaperSystemParams p;
  const Time cets[] = {p.t1_cet, p.t2_cet, p.t3_cet};
  const char* names[] = {"T1", "T2", "T3"};

  const auto run_rtc = [&](const std::vector<ModelPtr>& activations) {
    std::vector<rtc::RtcTask> tasks;
    for (int i = 0; i < 3; ++i)
      tasks.push_back(rtc::RtcTask{names[i], rtc::upper_arrival_from(*activations[i]), cets[i]});
    return rtc::analyze_fp_rtc(tasks);
  };
  const auto run_spp = [&](const std::vector<ModelPtr>& activations) {
    std::vector<sched::TaskParams> tasks;
    for (int i = 0; i < 3; ++i)
      tasks.push_back(
          sched::TaskParams{names[i], i + 1, sched::ExecutionTime(cets[i]), activations[i]});
    std::vector<Time> out;
    const sched::LocalAnalysis cpu(sched::Policy::kSppPreemptive, tasks);
    for (const auto& r : cpu.analyze_all()) out.push_back(r.wcrt);
    return out;
  };

  const std::vector<ModelPtr> hem_act = results.f1_unpacked;
  const std::vector<ModelPtr> flat_act(3, results.f1_total);

  const auto hem_rtc = run_rtc(hem_act);
  const auto hem_spp = run_spp(hem_act);
  const auto flat_rtc = run_rtc(flat_act);
  const auto flat_spp = run_spp(flat_act);

  std::puts("=== Ablation A6: busy-window (CPA) vs RTC GPC chain, paper CPU1 ===");
  std::printf("%-6s %14s %14s %14s %14s\n", "Task", "HEM CPA", "HEM RTC", "flat CPA",
              "flat RTC");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-6s %14lld %14lld %14lld %14lld\n", names[i],
                static_cast<long long>(hem_spp[i]), static_cast<long long>(hem_rtc[i].delay),
                static_cast<long long>(flat_spp[i]),
                static_cast<long long>(flat_rtc[i].delay));
  }
  std::puts("\nReading: the stream model (HEM vs flat) dominates the bound quality;");
  std::puts("the local analysis flavour (busy-window vs RTC) is second order.");
  return 0;
}
