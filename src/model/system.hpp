#pragma once

/// \file system.hpp
/// Declarative system model for compositional performance analysis:
/// resources (with a local scheduling policy), tasks (computation or frame
/// transmission), and the event-stream graph connecting them.
///
/// This is the "abstract system model consisting of operations and event
/// streams" of the paper's Fig. 1: external sources stimulate tasks, task
/// outputs stimulate connected tasks (possibly OR-combined), a COM layer
/// packs signal streams into hierarchical frame streams, frames travel over
/// a bus task, and unpack edges extract the per-signal inner streams for
/// the receiving tasks.

#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/event_model.hpp"
#include "hierarchical/pack_constructor.hpp"
#include "sched/busy_window.hpp"

namespace hem::cpa {

using TaskId = std::size_t;
using ResourceId = std::size_t;

/// Local scheduling policy of a resource (the one the local analysis takes).
using Policy = sched::Policy;

struct ResourceSpec {
  std::string name;
  Policy policy = Policy::kSppPreemptive;
  Time tdma_cycle = 0;   ///< required for kTdma and kFlexRayStatic (cycle length)
  Time slot_length = 0;  ///< required for kFlexRayStatic
};

struct TaskSpec {
  std::string name;
  ResourceId resource = 0;
  int priority = 0;  ///< smaller value = higher priority (SPP / CAN)
  sched::ExecutionTime cet{0, 0};
  Time slot = 0;      ///< round-robin or TDMA slot, where applicable
  Time deadline = 0;  ///< relative deadline, required on EDF resources
};

/// Activation by an external stimulus with a fixed event model.
struct ExternalActivation {
  ModelPtr model;
};

/// Activation by the output streams of other tasks (OR-combined if > 1).
struct TaskOutputActivation {
  std::vector<TaskId> producers;
};

/// AND-activation: one activation per complete set of producer tokens
/// (Jersak semantics).  All producers must share the given long-run
/// period; their outputs are conservatively re-fitted to SEMs with that
/// period before combination.
struct AndActivation {
  std::vector<TaskId> producers;
  Time period = 0;
};

/// Activation of a *frame* task by a packed hierarchical stream (Omega_pa):
/// the sources are task outputs and/or external models, each triggering or
/// pending, plus an optional periodic send timer.
struct PackedActivation {
  struct Input {
    std::variant<TaskId, ModelPtr> source;
    SignalCoupling coupling = SignalCoupling::kTriggering;
  };
  std::vector<Input> inputs;
  ModelPtr timer;  ///< may be null (direct frames)
};

/// Activation by one inner stream of a frame task's hierarchical output
/// (deconstructor Psi_pa applied at `index`).
struct UnpackedActivation {
  TaskId frame_task = 0;
  std::size_t index = 0;
};

using ActivationSpec = std::variant<std::monostate, ExternalActivation, TaskOutputActivation,
                                    AndActivation, PackedActivation, UnpackedActivation>;

/// All tasks whose *analysis results* an activation needs: the CPA engine
/// resolves an activation only once every referenced task (including
/// pending-coupled pack inputs and the unpack frame) has an output model.
[[nodiscard]] std::vector<TaskId> referenced_tasks(const ActivationSpec& spec);

/// The system under analysis.  Build it up with the add_/activate_ methods,
/// then hand it to CpaEngine.
class System {
 public:
  ResourceId add_resource(ResourceSpec spec);
  TaskId add_task(TaskSpec spec);

  /// Stimulate `task` with a fixed external event model.
  void activate_external(TaskId task, ModelPtr model);

  /// Stimulate `task` with the (OR-combined) outputs of `producers`.
  void activate_by(TaskId task, std::vector<TaskId> producers);

  /// Stimulate `task` once per complete token set of `producers`
  /// (AND-activation); all producers must run at `period`.
  void activate_and(TaskId task, std::vector<TaskId> producers, Time period);

  /// Stimulate the frame task `frame` with the pack-HSC of `inputs`
  /// (+ optional periodic timer).
  void activate_packed(TaskId frame, std::vector<PackedActivation::Input> inputs,
                       ModelPtr timer = nullptr);

  /// Stimulate `task` with inner stream `index` of frame task `frame`.
  void activate_unpacked(TaskId task, TaskId frame, std::size_t index);

  [[nodiscard]] const std::vector<ResourceSpec>& resources() const noexcept {
    return resources_;
  }
  [[nodiscard]] const std::vector<TaskSpec>& tasks() const noexcept { return tasks_; }
  [[nodiscard]] const ActivationSpec& activation(TaskId t) const { return activations_.at(t); }

  [[nodiscard]] TaskId task_id(std::string_view name) const;

  /// Replace a task's execution-time interval (used by sensitivity
  /// analysis to probe design parameters).
  void set_task_cet(TaskId task, sched::ExecutionTime cet);

  /// Replace a task's priority (used by priority optimisation).
  void set_task_priority(TaskId task, int priority);

  /// Replace a task's round-robin/TDMA slot (used by the synthesiser, which
  /// only knows slot sizes once execution times are assigned).
  void set_task_slot(TaskId task, Time slot);

  /// Replace a task's relative deadline (EDF); the synthesiser sets it once
  /// each task's activation period is known.
  void set_task_deadline(TaskId task, Time deadline);

  /// Replace a TDMA/FlexRay resource's cycle length — again for builders
  /// that size the cycle from the slots they assigned after the fact.
  /// \throws std::invalid_argument for a non-positive cycle or a resource
  ///         whose policy has no cycle.
  void set_resource_tdma_cycle(ResourceId resource, Time cycle);

  /// Visit every external event-model slot of `task`'s activation (the
  /// ExternalActivation model, PackedActivation ModelPtr sources, and the
  /// pack timer) and let `fn` substitute a replacement node (return nullptr
  /// to keep the current one).  Used by fault injection
  /// (verify::inject_broken_models) and by tests that swap a source for an
  /// equivalent trace model.
  void rewrite_external_models(TaskId task,
                               const std::function<ModelPtr(const ModelPtr&)>& fn);

  /// Structural validation: every task has an activation, references are in
  /// range, resources have the parameters their policy needs.
  void validate() const;

 private:
  std::vector<ResourceSpec> resources_;
  std::vector<TaskSpec> tasks_;
  std::vector<ActivationSpec> activations_;
};

}  // namespace hem::cpa
