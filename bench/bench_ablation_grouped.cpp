// Ablation A5: relation to Albers-style hierarchical SINGLE-stream models
// (paper's related work [1]).
//
// Scenario 1 (where [1] helps): a dispatcher task on the receiver CPU is
// activated once per signal INSTANCE in each arriving frame (B = 3 signals
// per frame).  Its activation stream really is "a group of 3 per frame";
// the grouped model captures that burst structure far better than a
// flat SEM fit of the same stream.
//
// Scenario 2 (where only HEMs help): the paper's three receiver tasks.
// A single-stream hierarchy has no notion of which group member belongs to
// which signal, so every receiver still gets charged the full grouped
// stream; the HEM unpacked bounds stay far below.

#include <cstdio>

#include "core/grouped_stream_model.hpp"
#include "core/sem_fit.hpp"
#include "scenarios/paper_system.hpp"
#include "sched/local_analysis.hpp"

int main() {
  using namespace hem;

  const auto results = scenarios::analyze_paper_system();
  const ModelPtr frame_stream = results.f1_total;  // F1 output stream

  // --- Scenario 1: dispatcher processing every signal instance -----------
  const auto grouped = std::make_shared<GroupedStreamModel>(frame_stream, 3, 0);
  const auto flat_fit = fit_sem(*grouped);

  const auto wcrt_with = [&](const ModelPtr& act) {
    sched::LocalAnalysis cpu(sched::Policy::kSppPreemptive,
                             {sched::TaskParams{"dispatch", 1, sched::ExecutionTime(10), act}});
    return cpu.analyze(0).wcrt;
  };

  std::puts("=== A5.1: dispatcher activated per signal instance (B=3 per frame) ===");
  std::printf("grouped hierarchical single-stream model : WCRT = %lld\n",
              static_cast<long long>(wcrt_with(grouped)));
  std::printf("flat SEM fit of the same stream          : WCRT = %lld  (%s)\n",
              static_cast<long long>(wcrt_with(flat_fit)), flat_fit->describe().c_str());

  std::puts("\n=== A5.2: per-signal receivers (the paper's T1..T3) ===");
  std::printf("%-6s %16s %16s\n", "Task", "grouped stream", "HEM unpacked");
  const char* names[] = {"T1", "T2", "T3"};
  // With a single-stream hierarchy every receiver sees the whole grouped
  // stream (one group member per frame is "theirs", but the model cannot
  // say which): conservatively one activation per frame, i.e. the flat
  // frame stream - identical to the paper's flat baseline.
  for (int i = 0; i < 3; ++i) {
    std::printf("%-6s %16lld %16lld\n", names[i],
                static_cast<long long>(results.flat.task(names[i]).wcrt),
                static_cast<long long>(results.hem.task(names[i]).wcrt));
  }
  std::puts("\nReading: single-stream hierarchies ([1]) sharpen burst structure of");
  std::puts("one stream; only multi-stream hierarchies (this paper) remove the");
  std::puts("per-receiver overestimation of packed communication.");
  return 0;
}
