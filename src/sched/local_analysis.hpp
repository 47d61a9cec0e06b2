#pragma once

/// \file local_analysis.hpp
/// The local response-time analysis of every scheduling policy: one
/// multi-activation busy window (Lehoczky), written once.
///
/// For the task i under analysis, LocalAnalysis::analyze computes
///
///   L       = lfp of the policy's busy-period step
///   Q       = max(1, eta+_i(L))
///   w(q)    = the policy's q-th completion time, q = 1..Q
///   R+      = max_{q=1..Q} ( w(q) - delta-_i(q) )
///   backlog = backlog_bound(delta-_i, w(1..Q))
///
/// and each policy contributes only its own equations: the busy-period step,
/// the q-th completion and the best case.  With hp(i) the higher-priority
/// tasks and I(w) = sum_{j in hp(i)} eta+_j(w + 1) * C+_j (arrivals in the
/// closed window [0, w]):
///
///   SPP        L = lfp C*eta+_i(L) + I(L)
///              w(q) = lfp q*C + I(w)
///   SPP under  L = lfp sbf^-1( C*max(1, eta+_i(L)) + I(L) )
///   a supply   w(q) = lfp sbf^-1( q*C + I(w) )
///   CAN        B = max_{j in lp(i)} C+_j (non-preemptive blocking)
///              L = lfp B + C*eta+_i(L) + I(L)
///              w(q) = lfp( B + (q-1)*C + I(w) ) + C
///   RR         I_rr(w, q) = sum_{j != i} min( eta+_j(w + 1)*C+_j,
///                                             ceil(max(1, q*C) / theta_i) * theta_j )
///              L = lfp C*eta+_i(L) + I_rr(L, max(1, eta+_i(L)))
///              w(q) = lfp q*C + I_rr(w, q)
///   TDMA       L = lfp S^-1( C*max(1, eta+_i(L)) ),  w(q) = S^-1(q*C)
///              (S = the slot's worst-alignment service, see service())
///   FlexRay    L = lfp cycle*max(1, eta+_i(L)) + C,   w(q) = q*cycle + C
///   EDF        L = lfp max(1, sum_j C+_j * eta+_j(L))  (the whole set's)
///              w(q) = Spuri's offset scan; backlog = eta+_i(R+)
///
/// R- is C- everywhere except TDMA, where best-case demand beyond one slot
/// still waits out the gaps.  Diagnostics keep the per-policy prefixes
/// (SppAnalysis, CanBusAnalysis, RoundRobinAnalysis, TdmaAnalysis,
/// FlexRayStaticAnalysis, EdfAnalysis, ServerSppAnalysis).

#include <string>
#include <vector>

#include "sched/busy_window.hpp"
#include "sched/resource_server.hpp"

namespace hem::sched {

/// Diagnostic prefix of the analysis of `policy`.
[[nodiscard]] const char* analysis_name(Policy policy);

class LocalAnalysis {
 public:
  /// \param tasks        every task sharing the resource.  SPP and CAN need
  ///                     pairwise distinct priorities, round robin and TDMA
  ///                     positive slots, EDF positive deadlines.
  /// \param cycle        TDMA / FlexRay cycle; TDMA slots must fit in it.
  /// \param slot_length  FlexRay static slot; every frame's C+ must fit.
  LocalAnalysis(Policy policy, std::vector<TaskParams> tasks, FixpointLimits limits = {},
                Time cycle = 0, Time slot_length = 0);

  /// SPP inside a resource server: the SPP demand is inverted through the
  /// supply bound function (on the parent level the server is a periodic
  /// task, P = Pi and C = Theta).
  LocalAnalysis(SupplyPtr supply, std::vector<TaskParams> tasks, FixpointLimits limits = {});

  /// Response-time analysis for the task at `index` (into the constructor
  /// task vector).
  [[nodiscard]] ResponseResult analyze(std::size_t index) const;

  /// Analyse every task; results in constructor order.
  [[nodiscard]] std::vector<ResponseResult> analyze_all() const;

  /// CAN: blocking time suffered by the frame at `index`.
  [[nodiscard]] Time blocking(std::size_t index) const;

  /// TDMA: guaranteed service for the task at `index` in any window of size
  /// dt (the window opens just as its slot closes).
  [[nodiscard]] Time service(std::size_t index, Time dt) const;

  /// TDMA: smallest window guaranteeing `demand` ticks of service.
  [[nodiscard]] Time service_inverse(std::size_t index, Time demand) const;

  /// EDF: demand bound of the task at `index` on an interval of size t.
  [[nodiscard]] Time demand_bound(std::size_t index, Time t) const;

  /// EDF: total demand bound of the task set on an interval of size t.
  [[nodiscard]] Time demand_bound(Time t) const;

  /// EDF: true iff dbf(t) <= t at every deadline in the busy period.
  /// \throws AnalysisError if the busy period itself diverges.
  [[nodiscard]] bool schedulable() const;

 private:
  struct Window;

  [[nodiscard]] Window window(std::size_t index) const;
  [[nodiscard]] Time busy_period(const Window& win) const;
  [[nodiscard]] Time busy_start(const Window& win) const;
  [[nodiscard]] Time busy_step(const Window& win, Time w) const;
  [[nodiscard]] Time completion(const Window& win, Count q, Time busy, Time& prev) const;
  [[nodiscard]] Time interference(const Window& win, Time w, Count q = 0,
                                  Time deadline_abs = 0) const;
  [[nodiscard]] Count eta(const TaskParams& task, Time w) const;
  [[nodiscard]] Time serve(Time demand) const;
  void validate() const;

  Policy policy_;
  std::string name_;
  std::vector<TaskParams> tasks_;
  FixpointLimits limits_;
  Time cycle_ = 0;
  Time slot_length_ = 0;
  SupplyPtr supply_;  ///< SPP under a resource server; null on a physical resource
};

}  // namespace hem::sched
