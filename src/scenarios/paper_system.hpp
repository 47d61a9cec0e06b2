#pragma once

/// \file paper_system.hpp
/// The paper's evaluation system (Fig. 2, Tables 1-3): four sources write
/// COM signals, two CAN frames transport them, three SPP tasks on CPU1
/// consume the signals of frame F1 (S4 travels in F2 to a second CPU).
///
///   Sources (Table 1):  S1 P=250 triggering, S2 P=450 triggering,
///                       S3 P=1000 pending,   S4 P=400 triggering
///   Bus (Table 2):      CAN-scheduled; F1 transmission [4:4], high prio;
///                       F2 transmission [2:2], low prio
///   CPU1 (Table 3):     SPP; T1 CET [24:24] high, T2 [32:32] med,
///                       T3 [40:40] low
///
/// The paper's Table 2 lists "payload size" [4:4]/[2:2]; absolute time
/// units are not given, so this reproduction interprets the bracketed
/// values directly as transmission-time intervals in ticks (consistent
/// with every other bracketed quantity in the paper's tables).  See
/// EXPERIMENTS.md.
///
/// Two analysis modes:
///   * flat - receiver tasks are activated by the total frame arrival
///     stream (classic flat event streams; the paper's baseline);
///   * HEM  - receiver tasks are activated by the unpacked per-signal
///     inner streams (the paper's contribution).

#include <string>
#include <vector>

#include "model/analysis_report.hpp"
#include "model/cpa_engine.hpp"
#include "model/system.hpp"

namespace hem::scenarios {

/// Parameters of the paper system, defaulted to the paper's values; the
/// ablation benchmarks sweep them.
struct PaperSystemParams {
  Time s1_period = 250;
  Time s2_period = 450;
  Time s3_period = 1000;
  Time s4_period = 400;
  Time s1_jitter = 0;
  Time s2_jitter = 0;
  Time s3_jitter = 0;
  Time s4_jitter = 0;
  Time f1_time = 4;   ///< F1 transmission time [f1:f1]
  Time f2_time = 2;   ///< F2 transmission time [f2:f2]
  Time t1_cet = 24;
  Time t2_cet = 32;
  Time t3_cet = 40;
  Time t4_cet = 10;   ///< receiver of S4 on CPU2 (not part of Table 3)
};

/// One row of the reproduced Table 3.
struct Table3Row {
  std::string task;
  Time cet;
  std::string priority;
  Time wcrt_flat;
  Time wcrt_hem;
  double reduction_percent;  ///< (flat - hem) / flat * 100
};

/// Everything the paper's evaluation section reports.
struct PaperSystemResults {
  cpa::AnalysisReport flat;   ///< full report, flat mode
  cpa::AnalysisReport hem;    ///< full report, HEM mode
  std::vector<Table3Row> table3;  ///< T1..T3
  ModelPtr f1_total;          ///< output stream of F1 (total frame arrivals)
  std::vector<ModelPtr> f1_unpacked;  ///< unpacked activation models of T1..T3
};

/// Build the system in flat or HEM mode.
[[nodiscard]] cpa::System build_paper_system(const PaperSystemParams& p, bool hierarchical);

/// Run both modes and assemble the Table 3 / Figure 4 data.
[[nodiscard]] PaperSystemResults analyze_paper_system(const PaperSystemParams& p = {});

}  // namespace hem::scenarios
