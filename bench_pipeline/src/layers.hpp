#pragma once

// Per-layer measurements for the traced run: self time per span from the
// trace, and direct probes of each layer's public functions on the
// workload's own inputs.

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"

namespace bench {

/// Time spent under one span name.  Self time is the span's duration minus
/// its direct child spans on the same thread; `local:<resource>` spans are
/// folded into `local:*`.
struct SpanTotal {
  std::string name;
  long count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

[[nodiscard]] std::vector<SpanTotal> self_times(const std::vector<hem::obs::TraceEvent>& events);

/// Probe every layer on the workload's inputs and return the per-layer
/// metrics, except obs.trace_overhead (the caller derives it from its
/// traced and untraced loops).  `refs` are the in-process reference
/// results of w.inputs(), in order; `dir` receives the probes' files.
[[nodiscard]] std::vector<Metric> probe_layers(const Workload& w, const Env& env,
                                               const std::vector<Reference>& refs,
                                               const std::string& dir);

}  // namespace bench
