#pragma once

/// \file resource_server.hpp
/// Hierarchical scheduling substrate: the periodic resource model of
/// Shin & Lee (RTSS'03), which the paper cites as the established way to
/// extend *local* analysis to scheduling hierarchies (its point being that
/// event *streams* lacked an equivalent hierarchy).
///
/// A periodic resource Gamma = (Pi, Theta) guarantees Theta ticks of
/// service every Pi ticks.  Its supply bound function (worst-case phasing:
/// the component has just consumed its budget, giving a 2*(Pi - Theta)
/// blackout) is
///
///   sbf(t) = k * Theta + max(0, rem - (Pi - Theta))
///      with t' = max(0, t - (Pi - Theta)),  k = floor(t' / Pi),
///           rem = t' - k * Pi
///
/// SPP analysis *under* a server replaces physical time with supplied time:
/// the q-th completion is the smallest t with sbf(t) >= q*C+_i +
/// interference(t) (LocalAnalysis with a SupplyPtr).  On the parent level, a
/// server is simply a periodic task (P = Pi, C = Theta), so parent
/// schedulability is a plain SPP LocalAnalysis.

#include <memory>
#include <string>
#include <vector>

#include "sched/busy_window.hpp"

namespace hem::sched {

/// Abstract resource supply: how much service a (virtual) resource
/// guarantees in any time window.  Implementations must be monotone and
/// provide the exact pseudo-inverse.
class SupplyModel {
 public:
  virtual ~SupplyModel() = default;

  /// Guaranteed service in any window of size t (non-decreasing).
  [[nodiscard]] virtual Time sbf(Time t) const = 0;

  /// Smallest window guaranteeing `demand` ticks of service.
  [[nodiscard]] virtual Time sbf_inverse(Time demand) const = 0;

  /// Long-run supplied fraction of the resource.
  [[nodiscard]] virtual double utilization() const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;
};

using SupplyPtr = std::shared_ptr<const SupplyModel>;

/// A periodic resource Gamma = (Pi, Theta) (Shin/Lee).
class PeriodicServer final : public SupplyModel {
 public:
  PeriodicServer(Time pi, Time theta);

  [[nodiscard]] Time pi() const noexcept { return pi_; }
  [[nodiscard]] Time theta() const noexcept { return theta_; }

  [[nodiscard]] Time sbf(Time t) const override;
  [[nodiscard]] Time sbf_inverse(Time demand) const override;
  [[nodiscard]] double utilization() const noexcept override {
    return static_cast<double>(theta_) / static_cast<double>(pi_);
  }
  [[nodiscard]] std::string describe() const override;

 private:
  Time pi_;
  Time theta_;
};

/// Bounded-delay resource model (alpha, Delta), the Real-Time-Calculus
/// abstraction: after an initial service delay of at most Delta, supply
/// accrues at least at rate num/den:
///
///   sbf(t) = max(0, (t - Delta) * num / den)   (integer floor)
///
/// Any periodic server (Pi, Theta) conforms to the bounded-delay model
/// with rate Theta/Pi and Delta = 2 (Pi - Theta); the bounded-delay form
/// is coarser but composes across arbitrary server implementations.
class BoundedDelayServer final : public SupplyModel {
 public:
  /// \param delay     Delta >= 0.
  /// \param rate_num  supplied ticks per `rate_den` ticks of real time,
  ///                  0 < rate_num <= rate_den.
  BoundedDelayServer(Time delay, Time rate_num, Time rate_den);

  [[nodiscard]] Time delay() const noexcept { return delay_; }

  [[nodiscard]] Time sbf(Time t) const override;
  [[nodiscard]] Time sbf_inverse(Time demand) const override;
  [[nodiscard]] double utilization() const noexcept override {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }
  [[nodiscard]] std::string describe() const override;

  /// The bounded-delay abstraction of a periodic server.
  [[nodiscard]] static BoundedDelayServer from_periodic(const PeriodicServer& server);

 private:
  Time delay_;
  Time num_;
  Time den_;
};

}  // namespace hem::sched
