#include "sim/system_simulator.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>

#include "core/standard_event_model.hpp"

namespace hem::sim {

namespace {

using cpa::System;
using cpa::TaskId;

SourceSpec spec_from(const ModelPtr& model) {
  const auto* sem = dynamic_cast<const StandardEventModel*>(model.get());
  if (sem == nullptr)
    throw std::invalid_argument(
        "SystemSimulator: external/timer models must be StandardEventModels to generate "
        "conforming traces (got " +
        model->describe() + ")");
  return SourceSpec{sem->period(), sem->jitter(), sem->d_min(), 0};
}

}  // namespace

SystemSimulator::SystemSimulator(const cpa::System& system, Options options)
    : system_(system), options_(options) {
  system_.validate();
}

SystemSimResult SystemSimulator::run() {
  const FaultInjection& faults = options_.faults;
  if (faults.drop_rate < 0.0 || faults.drop_rate > 1.0)
    throw std::invalid_argument("SystemSimulator: drop_rate must be within [0, 1]");
  if (faults.extra_jitter < 0 || faults.burst < 1)
    throw std::invalid_argument("SystemSimulator: need extra_jitter >= 0 and burst >= 1");

  EventCalendar cal;
  std::mt19937_64 rng(options_.seed);
  const auto& tasks = system_.tasks();
  const auto& resources = system_.resources();

  // ---- per-task simulation state -----------------------------------------
  struct FrameState {
    std::vector<bool> fresh;                // per packed input
    std::deque<std::vector<bool>> latched;  // snapshots of jobs in flight
  };
  std::vector<FrameState> frame_state(tasks.size());

  // consumers_on_complete[t]: tasks activated by t's output (OR edges).
  std::vector<std::vector<TaskId>> consumers_on_complete(tasks.size());
  // and_edges: consumer -> token counters per producer.
  struct AndState {
    std::vector<TaskId> producers;
    std::vector<Count> tokens;
  };
  std::map<TaskId, AndState> and_state;
  // producer -> AND consumers.
  std::vector<std::vector<TaskId>> and_consumers(tasks.size());
  // packed_input_feeds[t]: (frame, input index) pairs fed by t's output.
  std::vector<std::vector<std::pair<TaskId, std::size_t>>> packed_feeds(tasks.size());
  // unpack_consumers[frame][input index] -> consumer tasks.
  std::vector<std::map<std::size_t, std::vector<TaskId>>> unpack_consumers(tasks.size());

  // ---- one ResourceSim per resource ----------------------------------------
  std::vector<std::vector<TaskId>> members(resources.size());
  std::vector<std::size_t> local(tasks.size());  // index within the task's ResourceSim
  for (TaskId t = 0; t < tasks.size(); ++t) {
    local[t] = members[tasks[t].resource].size();
    members[tasks[t].resource].push_back(t);
  }
  std::vector<std::unique_ptr<ResourceSim>> sims(resources.size());
  for (std::size_t r = 0; r < resources.size(); ++r) {
    if (members[r].empty()) continue;
    std::vector<cpa::TaskSpec> specs;
    for (const TaskId t : members[r]) specs.push_back(tasks[t]);
    sims[r] = std::make_unique<ResourceSim>(cal, resources[r], std::move(specs),
                                            options_.worst_case_exec, rng);
  }

  const auto activate = [&](TaskId t) { sims[tasks[t].resource]->activate(local[t]); };

  // Fan-out when any task completes: plain output consumers, AND-junction
  // token bookkeeping, packed inputs of downstream frames, and - for a
  // frame - the receivers of every signal fresh in its latched snapshot.
  const auto notify_completion = [&](TaskId t) {
    for (const TaskId c : consumers_on_complete[t]) activate(c);
    for (const TaskId c : and_consumers[t]) {
      AndState& st = and_state.at(c);
      for (std::size_t p = 0; p < st.producers.size(); ++p)
        if (st.producers[p] == t) ++st.tokens[p];
      if (std::all_of(st.tokens.begin(), st.tokens.end(), [](Count n) { return n > 0; })) {
        for (auto& n : st.tokens) --n;
        activate(c);
      }
    }
    for (const auto& [frame, idx] : packed_feeds[t]) {
      frame_state[frame].fresh[idx] = true;
      const auto* packed = std::get_if<cpa::PackedActivation>(&system_.activation(frame));
      if (packed->inputs[idx].coupling == SignalCoupling::kTriggering) activate(frame);
    }
    FrameState& st = frame_state[t];
    if (st.latched.empty()) return;  // not a packed frame
    const std::vector<bool> snapshot = std::move(st.latched.front());
    st.latched.pop_front();
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (!snapshot[i]) continue;
      const auto it = unpack_consumers[t].find(i);
      if (it == unpack_consumers[t].end()) continue;
      for (const TaskId c : it->second) activate(c);
    }
  };

  for (std::size_t r = 0; r < resources.size(); ++r) {
    if (!sims[r]) continue;
    sims[r]->on_start = [&, r](std::size_t i) {
      FrameState& st = frame_state[members[r][i]];
      if (st.fresh.empty()) return;  // not a packed frame
      st.latched.push_back(st.fresh);
      st.fresh.assign(st.fresh.size(), false);
    };
    sims[r]->on_complete = [&, r](std::size_t i) { notify_completion(members[r][i]); };
  }

  // ---- wire activation specs -----------------------------------------
  std::vector<std::pair<SourceSpec, std::function<void()>>> generators;
  for (TaskId t = 0; t < tasks.size(); ++t) {
    const auto& spec = system_.activation(t);
    if (const auto* ext = std::get_if<cpa::ExternalActivation>(&spec)) {
      generators.emplace_back(spec_from(ext->model), [&, t] { activate(t); });
      continue;
    }
    if (const auto* by = std::get_if<cpa::TaskOutputActivation>(&spec)) {
      for (const TaskId p : by->producers) consumers_on_complete[p].push_back(t);
      continue;
    }
    if (const auto* andj = std::get_if<cpa::AndActivation>(&spec)) {
      AndState st;
      st.producers = andj->producers;
      st.tokens.assign(andj->producers.size(), 0);
      and_state[t] = std::move(st);
      for (const TaskId p : andj->producers) and_consumers[p].push_back(t);
      continue;
    }
    if (const auto* packed = std::get_if<cpa::PackedActivation>(&spec)) {
      frame_state[t].fresh.assign(packed->inputs.size(), false);
      for (std::size_t i = 0; i < packed->inputs.size(); ++i) {
        const auto& input = packed->inputs[i];
        if (const auto* producer = std::get_if<TaskId>(&input.source)) {
          packed_feeds[*producer].emplace_back(t, i);
        } else {
          const auto& model = std::get<ModelPtr>(input.source);
          const bool triggering = input.coupling == SignalCoupling::kTriggering;
          generators.emplace_back(spec_from(model), [&, t, i, triggering] {
            frame_state[t].fresh[i] = true;
            if (triggering) activate(t);
          });
        }
      }
      if (packed->timer)
        generators.emplace_back(spec_from(packed->timer), [&, t] { activate(t); });
      continue;
    }
    if (const auto* up = std::get_if<cpa::UnpackedActivation>(&spec)) {
      unpack_consumers[up->frame_task][up->index].push_back(t);
      continue;
    }
  }

  // ---- schedule the external stimuli and run ------------------------------
  std::uniform_real_distribution<double> drop_dist(0.0, 1.0);
  std::uniform_int_distribution<Time> jitter_dist(0, std::max<Time>(faults.extra_jitter, 0));
  for (const auto& [src, fire] : generators) {
    const auto arrivals = generate_arrivals(src, options_.horizon, options_.mode, rng);
    for (const Time a : arrivals) {
      if (faults.drop_rate > 0.0 && drop_dist(rng) < faults.drop_rate) continue;
      Time when = a;
      if (faults.extra_jitter > 0) when += jitter_dist(rng);
      if (when >= options_.horizon) continue;
      for (Count b = 0; b < faults.burst; ++b) {
        auto f = fire;  // copy for the calendar closure
        cal.at(when, std::move(f));
      }
    }
  }
  cal.run_until(options_.horizon);

  // ---- collect -------------------------------------------------------
  SystemSimResult result;
  for (TaskId t = 0; t < tasks.size(); ++t)
    result.tasks[tasks[t].name] = sims[tasks[t].resource]->stats(local[t]);
  return result;
}

}  // namespace hem::sim
