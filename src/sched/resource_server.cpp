#include "sched/resource_server.hpp"

#include <algorithm>

namespace hem::sched {

PeriodicServer::PeriodicServer(Time pi, Time theta) : pi_(pi), theta_(theta) {
  if (pi <= 0) throw std::invalid_argument("PeriodicServer: Pi must be positive");
  if (theta <= 0 || theta > pi)
    throw std::invalid_argument("PeriodicServer: need 0 < Theta <= Pi");
}

Time PeriodicServer::sbf(Time t) const {
  const Time gap = pi_ - theta_;
  const Time tp = t - gap;
  if (tp <= 0) return 0;
  const Time k = tp / pi_;
  const Time rem = tp - k * pi_;
  return k * theta_ + std::max<Time>(0, rem - gap);
}

Time PeriodicServer::sbf_inverse(Time demand) const {
  if (demand <= 0) return 0;
  const Time gap = pi_ - theta_;
  // demand = k * Theta + rem with rem in (0, Theta].
  const Time k = (demand - 1) / theta_;
  const Time rem = demand - k * theta_;
  // Initial blackout gap, k whole periods, another gap inside the period,
  // then rem ticks of supply.
  return gap + k * pi_ + gap + rem;
}

BoundedDelayServer::BoundedDelayServer(Time delay, Time rate_num, Time rate_den)
    : delay_(delay), num_(rate_num), den_(rate_den) {
  if (delay < 0) throw std::invalid_argument("BoundedDelayServer: negative delay");
  if (rate_num <= 0 || rate_den <= 0 || rate_num > rate_den)
    throw std::invalid_argument("BoundedDelayServer: need 0 < rate <= 1");
}

Time BoundedDelayServer::sbf(Time t) const {
  if (t <= delay_) return 0;
  return (t - delay_) * num_ / den_;
}

Time BoundedDelayServer::sbf_inverse(Time demand) const {
  if (demand <= 0) return 0;
  // Smallest t with (t - delay) * num / den >= demand.
  return delay_ + ceil_div(demand * den_, num_);
}

std::string BoundedDelayServer::describe() const {
  return "BoundedDelay(Delta=" + std::to_string(delay_) + ", rate=" + std::to_string(num_) +
         "/" + std::to_string(den_) + ")";
}

BoundedDelayServer BoundedDelayServer::from_periodic(const PeriodicServer& server) {
  return BoundedDelayServer(2 * (server.pi() - server.theta()), server.theta(), server.pi());
}

std::string PeriodicServer::describe() const {
  return "PeriodicServer(Pi=" + std::to_string(pi_) + ", Theta=" + std::to_string(theta_) + ")";
}

}  // namespace hem::sched
