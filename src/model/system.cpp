#include "model/system.hpp"

#include <stdexcept>

namespace hem::cpa {

std::vector<TaskId> referenced_tasks(const ActivationSpec& spec) {
  std::vector<TaskId> refs;
  if (const auto* out = std::get_if<TaskOutputActivation>(&spec)) {
    refs = out->producers;
  } else if (const auto* land = std::get_if<AndActivation>(&spec)) {
    refs = land->producers;
  } else if (const auto* packed = std::get_if<PackedActivation>(&spec)) {
    for (const auto& in : packed->inputs)
      if (const auto* task = std::get_if<TaskId>(&in.source)) refs.push_back(*task);
  } else if (const auto* unpack = std::get_if<UnpackedActivation>(&spec)) {
    refs.push_back(unpack->frame_task);
  }
  return refs;
}

ResourceId System::add_resource(ResourceSpec spec) {
  if (spec.name.empty()) throw std::invalid_argument("System: resource with empty name");
  if ((spec.policy == Policy::kTdma || spec.policy == Policy::kFlexRayStatic) &&
      spec.tdma_cycle <= 0)
    throw std::invalid_argument("System: resource '" + spec.name + "' needs a cycle");
  if (spec.policy == Policy::kFlexRayStatic &&
      (spec.slot_length <= 0 || spec.slot_length > spec.tdma_cycle))
    throw std::invalid_argument("System: FlexRay resource '" + spec.name +
                                "' needs 0 < slot_length <= cycle");
  resources_.push_back(std::move(spec));
  return resources_.size() - 1;
}

TaskId System::add_task(TaskSpec spec) {
  if (spec.name.empty()) throw std::invalid_argument("System: task with empty name");
  if (spec.resource >= resources_.size())
    throw std::invalid_argument("System: task '" + spec.name + "' references unknown resource");
  for (const auto& t : tasks_)
    if (t.name == spec.name)
      throw std::invalid_argument("System: duplicate task name '" + spec.name + "'");
  tasks_.push_back(std::move(spec));
  activations_.emplace_back();
  return tasks_.size() - 1;
}

void System::activate_external(TaskId task, ModelPtr model) {
  if (!model) throw std::invalid_argument("System: null external activation model");
  activations_.at(task) = ExternalActivation{std::move(model)};
}

void System::activate_by(TaskId task, std::vector<TaskId> producers) {
  if (producers.empty()) throw std::invalid_argument("System: empty producer list");
  for (TaskId p : producers)
    if (p >= tasks_.size() || p == task)
      throw std::invalid_argument("System: invalid producer for task '" + tasks_.at(task).name +
                                  "'");
  activations_.at(task) = TaskOutputActivation{std::move(producers)};
}

void System::activate_and(TaskId task, std::vector<TaskId> producers, Time period) {
  if (producers.size() < 2)
    throw std::invalid_argument("System: AND-activation needs at least two producers");
  if (period <= 0) throw std::invalid_argument("System: AND-activation needs a period");
  for (TaskId p : producers)
    if (p >= tasks_.size() || p == task)
      throw std::invalid_argument("System: invalid AND producer for task '" +
                                  tasks_.at(task).name + "'");
  activations_.at(task) = AndActivation{std::move(producers), period};
}

void System::activate_packed(TaskId frame, std::vector<PackedActivation::Input> inputs,
                             ModelPtr timer) {
  if (inputs.empty()) throw std::invalid_argument("System: packed activation without inputs");
  for (const auto& in : inputs) {
    if (const auto* tid = std::get_if<TaskId>(&in.source)) {
      if (*tid >= tasks_.size() || *tid == frame)
        throw std::invalid_argument("System: invalid packed input for frame '" +
                                    tasks_.at(frame).name + "'");
    } else if (!std::get<ModelPtr>(in.source)) {
      throw std::invalid_argument("System: null packed input model");
    }
  }
  activations_.at(frame) = PackedActivation{std::move(inputs), std::move(timer)};
}

void System::activate_unpacked(TaskId task, TaskId frame, std::size_t index) {
  if (frame >= tasks_.size() || frame == task)
    throw std::invalid_argument("System: invalid frame task reference");
  activations_.at(task) = UnpackedActivation{frame, index};
}

void System::rewrite_external_models(TaskId task,
                                     const std::function<ModelPtr(const ModelPtr&)>& fn) {
  ActivationSpec& spec = activations_.at(task);
  const auto swap_in = [&](ModelPtr& slot) {
    if (!slot) return;
    if (ModelPtr replacement = fn(slot)) slot = std::move(replacement);
  };
  if (auto* ext = std::get_if<ExternalActivation>(&spec)) {
    swap_in(ext->model);
    return;
  }
  if (auto* packed = std::get_if<PackedActivation>(&spec)) {
    for (PackedActivation::Input& in : packed->inputs)
      if (auto* m = std::get_if<ModelPtr>(&in.source)) swap_in(*m);
    swap_in(packed->timer);
  }
}

TaskId System::task_id(std::string_view name) const {
  for (TaskId i = 0; i < tasks_.size(); ++i)
    if (tasks_[i].name == name) return i;
  throw std::invalid_argument("System: no task named '" + std::string(name) + "'");
}

void System::set_task_cet(TaskId task, sched::ExecutionTime cet) {
  tasks_.at(task).cet = cet;
}

void System::set_task_priority(TaskId task, int priority) {
  tasks_.at(task).priority = priority;
}

void System::set_task_slot(TaskId task, Time slot) { tasks_.at(task).slot = slot; }

void System::set_task_deadline(TaskId task, Time deadline) {
  tasks_.at(task).deadline = deadline;
}

void System::set_resource_tdma_cycle(ResourceId resource, Time cycle) {
  ResourceSpec& res = resources_.at(resource);
  if (res.policy != Policy::kTdma && res.policy != Policy::kFlexRayStatic)
    throw std::invalid_argument("System: resource '" + res.name + "' has no TDMA cycle");
  if (cycle <= 0)
    throw std::invalid_argument("System: resource '" + res.name + "' needs a positive cycle");
  res.tdma_cycle = cycle;
}

void System::validate() const {
  if (tasks_.empty()) throw std::invalid_argument("System: no tasks");
  for (TaskId i = 0; i < tasks_.size(); ++i) {
    const auto& act = activations_[i];
    if (std::holds_alternative<std::monostate>(act))
      throw std::invalid_argument("System: task '" + tasks_[i].name + "' has no activation");
    if (const auto* up = std::get_if<UnpackedActivation>(&act)) {
      const auto& frame_act = activations_.at(up->frame_task);
      const auto* packed = std::get_if<PackedActivation>(&frame_act);
      if (packed == nullptr)
        throw std::invalid_argument("System: task '" + tasks_[i].name +
                                    "' unpacks from a task without packed activation");
      if (up->index >= packed->inputs.size())
        throw std::invalid_argument("System: task '" + tasks_[i].name +
                                    "' unpacks out-of-range inner stream");
    }
    const auto& res = resources_[tasks_[i].resource];
    if ((res.policy == Policy::kRoundRobin || res.policy == Policy::kTdma) &&
        tasks_[i].slot <= 0)
      throw std::invalid_argument("System: task '" + tasks_[i].name +
                                  "' needs a positive slot on resource '" + res.name + "'");
    if (res.policy == Policy::kEdf && tasks_[i].deadline <= 0)
      throw std::invalid_argument("System: task '" + tasks_[i].name +
                                  "' needs a positive deadline on EDF resource '" + res.name +
                                  "'");
  }
}

}  // namespace hem::cpa
