#include "scenarios/synth.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "core/delta_function_model.hpp"
#include "core/leaky_bucket_model.hpp"
#include "core/offset_transaction_model.hpp"
#include "core/standard_event_model.hpp"

namespace hem::scenarios {

namespace {

/// Integer draw in [0, n) from the exactly-specified mt19937_64 stream.
/// Modulo bias is irrelevant here (n is tiny against 2^64) and the result
/// is identical on every platform.
std::uint64_t draw(std::mt19937_64& rng, std::uint64_t n) { return rng() % n; }

/// Uniform double in [0, 1) with 53 significant bits.
double draw01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Classic UUniFast: split total utilisation `u` uniformly over `m` tasks.
std::vector<double> uunifast(std::mt19937_64& rng, std::size_t m, double u) {
  std::vector<double> shares(m, u);
  double sum = u;
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const double next =
        sum * std::pow(draw01(rng), 1.0 / static_cast<double>(m - 1 - i));
    shares[i] = sum - next;
    sum = next;
  }
  if (m > 0) shares[m - 1] = sum;
  return shares;
}

/// Log-ish-uniform period from an all-integer decade ladder:
/// min_period * 10^d * f with f in [1, 9], clamped to [min, max].
Time draw_period(std::mt19937_64& rng, Time min_period, Time max_period) {
  int decades = 0;
  for (Time p = min_period; p * 10 <= max_period; p *= 10) ++decades;
  Time scale = min_period;
  for (std::uint64_t d = draw(rng, static_cast<std::uint64_t>(decades) + 1); d > 0; --d)
    scale *= 10;
  const Time factor = 1 + static_cast<Time>(draw(rng, 9));
  return std::clamp(sat_mul(scale, factor), min_period, max_period);
}

/// TDMA slot table of resource `r` from its tasks' WCETs and effective
/// periods.  With u_i = WCET_i / period_i and U their sum, each slot is
/// ceil(cycle * u_i * f) with f = 2 / (1 + U) > 1, so every task's share of
/// the cycle exceeds its utilisation and the slot keeps up with jittered
/// activations too.  The cycle is the shortest period on the resource (a
/// slot per own period), but at least n (1 + U) / (1 - U): then the n
/// rounded-up slots sum to less than cycle * U * f + n <= cycle and fit.
void size_tdma_slots(cpa::System& sys, cpa::ResourceId r, const std::vector<cpa::TaskId>& ids,
                     const std::vector<Time>& eff_period) {
  std::vector<double> util;
  double total = 0.0;
  Time shortest = kTimeInfinity;
  for (const cpa::TaskId t : ids) {
    util.push_back(static_cast<double>(sys.tasks()[t].cet.worst) /
                   static_cast<double>(eff_period[t]));
    total += util.back();
    shortest = std::min(shortest, eff_period[t]);
  }
  // Rounded-up WCETs can push U to 1, where no slot table keeps up; the
  // cap keeps the arithmetic finite, and the final max keeps the slots
  // inside the cycle whatever the rounding does.
  total = std::min(total, 0.99);
  const double n = static_cast<double>(ids.size());
  const Time cycle =
      std::max(shortest, static_cast<Time>(std::ceil(n * (1 + total) / (1 - total))));
  Time slot_sum = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Time slot = static_cast<Time>(
        std::ceil(static_cast<double>(cycle) * util[i] * 2.0 / (1.0 + total)));
    sys.set_task_slot(ids[i], slot);
    slot_sum += slot;
  }
  sys.set_resource_tdma_cycle(r, std::max(cycle, slot_sum));
}

}  // namespace

cpa::System build_synth_system(const SynthParams& params) {
  if (params.resources < 1) throw std::invalid_argument("synth: resources must be >= 1");
  if (params.tasks < params.resources)
    throw std::invalid_argument("synth: tasks must be >= resources");
  if (!(params.utilization > 0.0) || !(params.utilization < 1.0))
    throw std::invalid_argument("synth: utilization must be in (0, 1)");
  if (params.min_period < 1 || params.max_period < params.min_period)
    throw std::invalid_argument("synth: need 1 <= min_period <= max_period");
  if (params.tdma_permille < 0 || params.rr_permille < 0 || params.edf_permille < 0 ||
      params.tdma_permille + params.rr_permille + params.edf_permille > 1000)
    throw std::invalid_argument(
        "synth: need tdma_permille + rr_permille + edf_permille in [0, 1000]");

  const auto n_res = static_cast<std::size_t>(params.resources);
  const auto n_tasks = static_cast<std::size_t>(params.tasks);
  const auto layers = static_cast<std::size_t>(
      std::clamp(params.layers, 1, params.resources));
  std::mt19937_64 rng(params.seed);
  cpa::System sys;

  // Resources: contiguous layer blocks, every fourth one a CAN bus.  With
  // tdma/rr_permille > 0 a deterministic share of the CPUs is re-policied
  // time-driven: (r * 131) mod 1000 walks a permutation of the residues
  // (gcd(131, 1000) = 1) that is well-spread even over the first handful
  // of indices, so the share is near-exact at any fleet size and
  // — crucially — costs zero RNG draws: the same seed still produces the
  // same periods, chains, and utilisation shares for every other resource.
  // TDMA cycles are provisional here; they are sized from the slots once
  // execution times exist (below).
  std::vector<std::size_t> layer_of(n_res);
  for (std::size_t r = 0; r < n_res; ++r) {
    layer_of[r] = r * layers / n_res;
    cpa::ResourceSpec spec;
    const char* prefix = "cpu";
    if (r % 4 == 3) {
      spec.policy = cpa::Policy::kSpnpCan;
      prefix = "bus";
    } else {
      const int mix = static_cast<int>(r * 131 % 1000);
      if (mix < params.tdma_permille) {
        spec.policy = cpa::Policy::kTdma;
        spec.tdma_cycle = 1;  // provisional; sized from the slots below
        prefix = "tdma";
      } else if (mix < params.tdma_permille + params.rr_permille) {
        spec.policy = cpa::Policy::kRoundRobin;
        prefix = "rr";
      } else if (mix < params.tdma_permille + params.rr_permille + params.edf_permille) {
        spec.policy = cpa::Policy::kEdf;
        prefix = "edf";
      } else {
        spec.policy = cpa::Policy::kSppPreemptive;
      }
    }
    spec.name = prefix + std::to_string(r) + "_l" + std::to_string(layer_of[r]);
    sys.add_resource(std::move(spec));
  }

  // Tasks: near-even split, remainder to the lowest-numbered resources, so
  // every resource carries at least one task.
  std::vector<std::vector<cpa::TaskId>> on_resource(n_res);
  std::vector<std::vector<cpa::TaskId>> on_layer(layers);
  std::vector<Time> eff_period(n_tasks, 0);  ///< period the CET is sized against
  for (std::size_t r = 0; r < n_res; ++r) {
    const std::size_t count = n_tasks / n_res + (r < n_tasks % n_res ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) {
      cpa::TaskSpec spec;
      spec.resource = r;
      spec.priority = static_cast<int>(i);  // unique within the resource
      spec.name = "t" + std::to_string(r) + "_" + std::to_string(i);
      const cpa::TaskId t = sys.add_task(std::move(spec));
      on_resource[r].push_back(t);
      on_layer[layer_of[r]].push_back(t);
    }
  }

  // Activations: externals on layer 0 (and as the fallback everywhere);
  // deeper layers chain onto previous-layer outputs with ~50% probability.
  // With packed_permille > 0, some CAN-bus tasks become packed COM frames
  // and some deeper CPU tasks unpack their inner streams.  All packed-mode
  // draws are guarded so the default (0) consumes nothing from the RNG and
  // earlier seeds stay byte-identical.
  struct Frame {
    cpa::TaskId task = 0;
    Time eff = 0;                     ///< effective frame send period
    std::vector<Time> input_periods;  ///< per inner signal
    std::vector<bool> triggering;
  };
  std::vector<Frame> frames;
  const auto activate_external = [&](cpa::TaskId t) {
    const Time period = draw_period(rng, params.min_period, params.max_period);
    const Time jitter = static_cast<Time>(draw(rng, static_cast<std::uint64_t>(period / 2) + 1));
    eff_period[t] = period;
    sys.activate_external(t, StandardEventModel::periodic_with_jitter(period, jitter));
  };
  // Integer OR-rate combination: two streams of periods a and b interleave
  // with an effective period of a*b/(a+b) (rates add up).
  const auto combine_periods = [](Time a, Time b) {
    return std::max<Time>(1, a * b / (a + b));
  };
  const auto activate_packed = [&](cpa::TaskId t) {
    Frame frame;
    frame.task = t;
    std::vector<cpa::PackedActivation::Input> inputs;
    Time eff = 0;
    const std::size_t n_inputs = 2 + draw(rng, 2);  // 2..3 signals per frame
    for (std::size_t i = 0; i < n_inputs; ++i) {
      const Time period = draw_period(rng, params.min_period, params.max_period);
      const Time jitter =
          static_cast<Time>(draw(rng, static_cast<std::uint64_t>(period / 2) + 1));
      // The first signal always triggers so the frame is sendable without a
      // timer (hemlint HL008); the rest draw their coupling.
      const bool trig = i == 0 || draw(rng, 2) == 0;
      inputs.push_back({StandardEventModel::periodic_with_jitter(period, jitter),
                        trig ? SignalCoupling::kTriggering : SignalCoupling::kPending});
      frame.input_periods.push_back(period);
      frame.triggering.push_back(trig);
      if (trig) eff = eff == 0 ? period : combine_periods(eff, period);
    }
    ModelPtr timer;
    if (draw(rng, 2) == 0) {
      const Time period = draw_period(rng, params.min_period, params.max_period);
      timer = StandardEventModel::periodic(period);
      eff = eff == 0 ? period : combine_periods(eff, period);
    }
    sys.activate_packed(t, std::move(inputs), std::move(timer));
    frame.eff = eff;
    eff_period[t] = eff;
    frames.push_back(std::move(frame));
  };
  for (std::size_t r = 0; r < n_res; ++r) {
    const std::size_t layer = layer_of[r];
    const bool is_can = sys.resources()[r].policy == cpa::Policy::kSpnpCan;
    for (cpa::TaskId t : on_resource[r]) {
      if (params.packed_permille > 0 && is_can &&
          draw(rng, 1000) < static_cast<std::uint64_t>(params.packed_permille)) {
        activate_packed(t);
        continue;
      }
      // CPU tasks can consume a previously created frame's inner stream.
      if (params.packed_permille > 0 && !is_can && !frames.empty() && draw(rng, 4) == 0) {
        const Frame& frame = frames[draw(rng, frames.size())];
        const std::size_t index = draw(rng, frame.input_periods.size());
        sys.activate_unpacked(t, frame.task, index);
        // A triggering signal's inner stream is the signal itself; a pending
        // one is carried at most once per frame.
        eff_period[t] = frame.triggering[index]
                            ? frame.input_periods[index]
                            : std::max(frame.input_periods[index], frame.eff);
        continue;
      }
      const std::vector<cpa::TaskId>* pool = layer > 0 ? &on_layer[layer - 1] : nullptr;
      if (pool == nullptr || pool->empty() || draw(rng, 2) == 0) {
        activate_external(t);
        continue;
      }
      const cpa::TaskId p1 = (*pool)[draw(rng, pool->size())];
      // Occasionally OR-combine two upstream streams (event-rate adds up).
      if (pool->size() > 1 && draw(rng, 4) == 0) {
        cpa::TaskId p2 = (*pool)[draw(rng, pool->size())];
        if (p2 != p1) {
          const Time pa = eff_period[p1];
          const Time pb = eff_period[p2];
          eff_period[t] = std::max<Time>(1, pa * pb / (pa + pb));
          sys.activate_by(t, {p1, p2});
          continue;
        }
      }
      eff_period[t] = eff_period[p1];
      sys.activate_by(t, {p1});
    }
  }

  // Execution times: UUniFast utilisation shares within each resource,
  // scaled by the task's effective activation period.  Time-driven
  // resources additionally get their slot table here, derived from
  // already-drawn values (still zero extra RNG draws): a round-robin slot
  // fits its task's WCET; TDMA slots follow size_tdma_slots.
  for (std::size_t r = 0; r < n_res; ++r) {
    const std::vector<double> shares =
        uunifast(rng, on_resource[r].size(), params.utilization);
    const cpa::Policy policy = sys.resources()[r].policy;
    for (std::size_t i = 0; i < on_resource[r].size(); ++i) {
      const cpa::TaskId t = on_resource[r][i];
      const Time wcet = std::max<Time>(
          1, static_cast<Time>(shares[i] * static_cast<double>(eff_period[t])));
      const Time bcet = std::max<Time>(1, wcet / 2);
      sys.set_task_cet(t, sched::ExecutionTime{bcet, wcet});
      if (policy == cpa::Policy::kRoundRobin) sys.set_task_slot(t, wcet);
      if (policy == cpa::Policy::kEdf) sys.set_task_deadline(t, eff_period[t]);
    }
    if (policy == cpa::Policy::kTdma) size_tdma_slots(sys, r, on_resource[r], eff_period);
  }

  return sys;
}

namespace {

/// The textual format tokenises on whitespace and uses '#', '=', ':' and ','
/// structurally, so entity names must be single clean tokens.
void check_token(const std::string& name, const char* what) {
  if (name.empty())
    throw std::invalid_argument(std::string("to_config_text: empty ") + what + " name");
  for (const char c : name) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '#' || c == '=' || c == ':' ||
        c == ',')
      throw std::invalid_argument(std::string("to_config_text: ") + what + " name '" + name +
                                  "' is not a single clean token");
  }
}

/// `source <name> <kind> <params>` tail for one external model node, or
/// throws std::invalid_argument when the node has no statement form.
std::string source_stmt_tail(const EventModel& model) {
  std::ostringstream os;
  if (const auto* sem = dynamic_cast<const StandardEventModel*>(&model)) {
    if (sem->jitter() == 0 && sem->d_min() == sem->period())
      os << "periodic period=" << sem->period();
    else
      os << "sem period=" << sem->period() << " jitter=" << sem->jitter()
         << " dmin=" << sem->d_min();
  } else if (const auto* burst = dynamic_cast<const DeltaFunctionModel*>(&model)) {
    if (!burst->is_periodic_burst())
      throw std::invalid_argument(
          "to_config_text: arbitrary delta-curve model has no source statement form: " +
          model.describe());
    os << "burst size=" << burst->burst_size() << " inner=" << burst->burst_inner()
       << " period=" << burst->burst_outer();
  } else if (const auto* leaky = dynamic_cast<const LeakyBucketModel*>(&model)) {
    os << "leaky burst=" << leaky->burst() << " spacing=" << leaky->spacing();
  } else if (const auto* ofs = dynamic_cast<const OffsetTransactionModel*>(&model)) {
    os << "offsets period=" << ofs->period() << " at=";
    for (std::size_t i = 0; i < ofs->offsets().size(); ++i)
      os << (i > 0 ? "," : "") << ofs->offsets()[i];
    if (ofs->jitter() > 0) os << " jitter=" << ofs->jitter();
  } else {
    throw std::invalid_argument("to_config_text: external model kind not expressible: " +
                                model.describe());
  }
  return os.str();
}

/// Pack timers are parsed as `timer=<period>` -> StandardEventModel::periodic,
/// so only strictly periodic SEM timers round-trip.
Time timer_period(const ModelPtr& timer) {
  const auto* sem = dynamic_cast<const StandardEventModel*>(timer.get());
  if (sem == nullptr || sem->jitter() != 0 || sem->d_min() != sem->period())
    throw std::invalid_argument(
        "to_config_text: pack timer is not a strictly periodic SEM: " + timer->describe());
  return sem->period();
}

}  // namespace

std::string to_config_text(const cpa::System& system, const cpa::DeadlineMap& deadlines) {
  const auto& resources = system.resources();
  const auto& tasks = system.tasks();

  std::set<std::string> task_names;
  for (const auto& t : tasks) {
    check_token(t.name, "task");
    task_names.insert(t.name);
  }
  for (const auto& r : resources) check_token(r.name, "resource");

  // Assign stable names to external model nodes (shared nodes emitted once).
  // `activate from=` and `packed inputs=` resolve task names before source
  // names, so a source name must not collide with any task name.
  std::map<const EventModel*, std::string> source_names;
  std::vector<const EventModel*> source_order;
  std::size_t next_source = 0;
  const auto name_source = [&](const ModelPtr& model) -> const std::string& {
    const auto it = source_names.find(model.get());
    if (it != source_names.end()) return it->second;
    std::string name;
    do {
      name = "s" + std::to_string(next_source++);
    } while (task_names.count(name) != 0);
    source_order.push_back(model.get());
    return source_names.emplace(model.get(), std::move(name)).first->second;
  };
  std::ostringstream sources_out;
  const auto declare_source = [&](const ModelPtr& model) -> const std::string& {
    if (model == nullptr)
      throw std::invalid_argument("to_config_text: null external model");
    const bool fresh = source_names.count(model.get()) == 0;
    const std::string& name = name_source(model);
    if (fresh)
      sources_out << "source " << name << " " << source_stmt_tail(*model) << "\n";
    return name;
  };

  std::ostringstream body;
  for (cpa::TaskId t = 0; t < tasks.size(); ++t) {
    const cpa::ActivationSpec& spec = system.activation(t);
    const std::string& name = tasks[t].name;
    if (const auto* ext = std::get_if<cpa::ExternalActivation>(&spec)) {
      body << "activate " << name << " from=" << declare_source(ext->model) << "\n";
    } else if (const auto* out = std::get_if<cpa::TaskOutputActivation>(&spec)) {
      if (out->producers.empty())
        throw std::invalid_argument("to_config_text: task '" + name + "' has no producers");
      body << "activate " << name << (out->producers.size() == 1 ? " from=" : " or=");
      for (std::size_t i = 0; i < out->producers.size(); ++i)
        body << (i > 0 ? "," : "") << tasks[out->producers[i]].name;
      body << "\n";
    } else if (const auto* land = std::get_if<cpa::AndActivation>(&spec)) {
      body << "activate " << name << " and=";
      for (std::size_t i = 0; i < land->producers.size(); ++i)
        body << (i > 0 ? "," : "") << tasks[land->producers[i]].name;
      body << " period=" << land->period << "\n";
    } else if (const auto* packed = std::get_if<cpa::PackedActivation>(&spec)) {
      body << "packed " << name << " inputs=";
      for (std::size_t i = 0; i < packed->inputs.size(); ++i) {
        const auto& input = packed->inputs[i];
        body << (i > 0 ? "," : "");
        if (const auto* producer = std::get_if<cpa::TaskId>(&input.source))
          body << tasks[*producer].name;
        else
          body << declare_source(std::get<ModelPtr>(input.source));
        body << (input.coupling == SignalCoupling::kTriggering ? ":trig" : ":pend");
      }
      if (packed->timer != nullptr) body << " timer=" << timer_period(packed->timer);
      body << "\n";
    } else if (const auto* unpacked = std::get_if<cpa::UnpackedActivation>(&spec)) {
      body << "unpack " << name << " frame=" << tasks[unpacked->frame_task].name
           << " index=" << unpacked->index << "\n";
    } else {
      throw std::invalid_argument("to_config_text: task '" + name + "' has no activation");
    }
  }

  std::ostringstream os;
  for (const auto& r : resources) {
    os << "resource " << r.name << " ";
    switch (r.policy) {
      case cpa::Policy::kSppPreemptive: os << "spp"; break;
      case cpa::Policy::kSpnpCan: os << "can"; break;
      case cpa::Policy::kRoundRobin: os << "rr"; break;
      case cpa::Policy::kTdma: os << "tdma cycle=" << r.tdma_cycle; break;
      case cpa::Policy::kFlexRayStatic:
        os << "flexray cycle=" << r.tdma_cycle << " slot=" << r.slot_length;
        break;
      case cpa::Policy::kEdf: os << "edf"; break;
    }
    os << "\n";
  }
  os << sources_out.str();
  for (const auto& t : tasks) {
    os << "task " << t.name << " resource=" << resources[t.resource].name
       << " priority=" << t.priority << " cet=" << t.cet.best << ":" << t.cet.worst;
    if (t.slot != 0) os << " slot=" << t.slot;
    if (t.deadline != 0) os << " deadline=" << t.deadline;
    os << "\n";
  }
  os << body.str();
  for (const auto& [task, ticks] : deadlines) {
    if (task_names.count(task) == 0)
      throw std::invalid_argument("to_config_text: deadline for unknown task '" + task + "'");
    os << "deadline " << task << " " << ticks << "\n";
  }
  return os.str();
}

}  // namespace hem::scenarios
