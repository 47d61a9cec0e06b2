#include "scenarios/paper_system.hpp"

#include "core/standard_event_model.hpp"

namespace hem::scenarios {

namespace {

using cpa::Policy;
using cpa::System;
using cpa::TaskId;

ModelPtr src(Time period, Time jitter) {
  return jitter > 0 ? StandardEventModel::periodic_with_jitter(period, jitter)
                    : StandardEventModel::periodic(period);
}

}  // namespace

cpa::System build_paper_system(const PaperSystemParams& p, bool hierarchical) {
  System sys;
  const auto bus = sys.add_resource({"CAN", Policy::kSpnpCan});
  const auto cpu1 = sys.add_resource({"CPU1", Policy::kSppPreemptive});
  const auto cpu2 = sys.add_resource({"CPU2", Policy::kSppPreemptive});

  const TaskId f1 = sys.add_task({"F1", bus, 1, sched::ExecutionTime(p.f1_time)});
  const TaskId f2 = sys.add_task({"F2", bus, 2, sched::ExecutionTime(p.f2_time)});
  const TaskId t1 = sys.add_task({"T1", cpu1, 1, sched::ExecutionTime(p.t1_cet)});
  const TaskId t2 = sys.add_task({"T2", cpu1, 2, sched::ExecutionTime(p.t2_cet)});
  const TaskId t3 = sys.add_task({"T3", cpu1, 3, sched::ExecutionTime(p.t3_cet)});
  const TaskId t4 = sys.add_task({"T4", cpu2, 1, sched::ExecutionTime(p.t4_cet)});

  // F1 packs S1 (triggering), S2 (triggering), S3 (pending); direct frame.
  sys.activate_packed(f1, {{src(p.s1_period, p.s1_jitter), SignalCoupling::kTriggering},
                           {src(p.s2_period, p.s2_jitter), SignalCoupling::kTriggering},
                           {src(p.s3_period, p.s3_jitter), SignalCoupling::kPending}});
  // F2 packs S4 (triggering); direct frame.
  sys.activate_packed(f2, {{src(p.s4_period, p.s4_jitter), SignalCoupling::kTriggering}});

  if (hierarchical) {
    sys.activate_unpacked(t1, f1, 0);
    sys.activate_unpacked(t2, f1, 1);
    sys.activate_unpacked(t3, f1, 2);
    sys.activate_unpacked(t4, f2, 0);
  } else {
    // Flat baseline: every frame arrival conservatively activates every
    // receiver of that frame.
    sys.activate_by(t1, {f1});
    sys.activate_by(t2, {f1});
    sys.activate_by(t3, {f1});
    sys.activate_by(t4, {f2});
  }
  return sys;
}

PaperSystemResults analyze_paper_system(const PaperSystemParams& p) {
  PaperSystemResults out;
  {
    cpa::System flat_sys = build_paper_system(p, /*hierarchical=*/false);
    out.flat = cpa::CpaEngine(flat_sys).run();
  }
  {
    cpa::System hem_sys = build_paper_system(p, /*hierarchical=*/true);
    out.hem = cpa::CpaEngine(hem_sys).run();
  }

  out.f1_total = out.hem.task("F1").output;
  for (const char* name : {"T1", "T2", "T3"})
    out.f1_unpacked.push_back(out.hem.task(name).activation);

  const struct {
    const char* name;
    Time cet;
    const char* prio;
  } rows[] = {{"T1", p.t1_cet, "High"}, {"T2", p.t2_cet, "Med"}, {"T3", p.t3_cet, "Low"}};
  for (const auto& r : rows) {
    const Time flat_wcrt = out.flat.task(r.name).wcrt;
    const Time hem_wcrt = out.hem.task(r.name).wcrt;
    const double red =
        flat_wcrt > 0
            ? 100.0 * static_cast<double>(flat_wcrt - hem_wcrt) / static_cast<double>(flat_wcrt)
            : 0.0;
    out.table3.push_back(Table3Row{r.name, r.cet, r.prio, flat_wcrt, hem_wcrt, red});
  }
  return out;
}

}  // namespace hem::scenarios
