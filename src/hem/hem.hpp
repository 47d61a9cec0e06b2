#pragma once

/// \file hem.hpp
/// Umbrella public header of the HEM/CPA library.
///
/// Quick tour:
///   * core/        event-model algebra: SEM, curves, OR/AND, Theta_tau,
///                  shapers (the flat compositional-analysis substrate)
///   * sched/       one local busy-window analysis for SPP, CAN (SPNP),
///                  round-robin, TDMA, FlexRay static, EDF and SPP under
///                  periodic-resource servers
///   * hierarchical/ hierarchical event models: pack constructor Omega_pa,
///                  inner update B, deconstructor Psi  (the paper's core)
///   * com/         CAN and Ethernet frame transmission times (the COM
///                  layer's packing is pack() behind System::activate_packed)
///   * model/       system graph + global compositional analysis engine
///   * sim/         independent discrete-event simulator for validation

#include "core/combinators.hpp"
#include "core/delta_function_model.hpp"
#include "core/errors.hpp"
#include "core/event_model.hpp"
#include "core/grouped_stream_model.hpp"
#include "core/leaky_bucket_model.hpp"
#include "core/model_io.hpp"
#include "core/offset_transaction_model.hpp"
#include "core/output_model.hpp"
#include "core/sem_fit.hpp"
#include "core/shaper.hpp"
#include "core/standard_event_model.hpp"
#include "core/time.hpp"
#include "core/trace_model.hpp"

#include "io/csv.hpp"

#include "sched/busy_window.hpp"
#include "sched/local_analysis.hpp"
#include "sched/resource_server.hpp"

#include "hierarchical/hierarchical_event_model.hpp"
#include "hierarchical/inner_update.hpp"
#include "hierarchical/pack_constructor.hpp"

#include "com/can_timing.hpp"

#include "model/analysis_report.hpp"
#include "model/cpa_engine.hpp"
#include "model/sensitivity.hpp"
#include "model/system.hpp"
#include "model/textual_config.hpp"

#include "rtc/curve.hpp"
#include "rtc/gpc.hpp"

// The simulators live in sim/ and are intentionally NOT pulled in here:
// they exist to validate the analyses independently, and keeping them out
// of the umbrella header preserves that separation for library users.
