#pragma once

/// \file output_model.hpp
/// Output event stream of an analysed task (operation Theta_tau).
///
/// Given the input stream F = (delta-, delta+) and the task's response-time
/// interval [r-, r+] delivered by local analysis, the output stream (paper,
/// section 3) is:
///
///   delta'-(n) = max{ delta-(n) - (r+ - r-),  delta'-(n - 1) + r- }
///   delta'+(n) = delta+(n) + (r+ - r-)
///
/// The first term of delta'- shifts the input curve by the response-time
/// spread (classic jitter propagation); the recursive second term encodes
/// that consecutive completions of one task on one resource are separated by
/// at least the minimum response time.

#include <atomic>
#include <string>

#include "core/curve_cache.hpp"
#include "core/event_model.hpp"

namespace hem {

class OutputModel final : public EventModel {
 public:
  /// \param input    activation stream of the analysed task.
  /// \param r_minus  minimum response time, 0 <= r- <= r+.
  /// \param r_plus   maximum response time (finite; an unbounded response
  ///                 time means the analysis failed upstream).
  OutputModel(ModelPtr input, Time r_minus, Time r_plus);

  [[nodiscard]] const ModelPtr& input() const noexcept { return input_; }
  [[nodiscard]] Time r_minus() const noexcept { return r_minus_; }
  [[nodiscard]] Time r_plus() const noexcept { return r_plus_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

  /// eq. (1) over the materialised recursion: a binary search of the
  /// published prefix when it already reaches dt, otherwise a forward scan
  /// that extends it exactly to the first delta'-(n) >= dt (the generic
  /// galloping inversion would extend up to twice as far).
  [[nodiscard]] Count eta_plus_raw(Time dt) const override;

 private:
  /// Extend the recursion from slot `from` (a published prefix length)
  /// through slot `need`, or only through the first slot whose value
  /// reaches `stop`; publish what was stored and return the index of the
  /// last slot computed, with its value in `last`.
  std::size_t extend(std::size_t from, std::size_t need, Time stop, Time& last) const;

  ModelPtr input_;
  Time r_minus_;
  Time r_plus_;

  // The recursive delta'- is materialised incrementally: rec_[i] holds
  // delta'-(i + 2) for every prefix value computed so far, and rec_len_ is
  // the length of the published contiguous prefix.  Output nodes are shared
  // across concurrently analysed resources; instead of serialising prefix
  // extension behind a mutex (which would also serialise the input sub-DAG
  // queries it performs), each thread extends the recursion in a private
  // evaluation arena — the running `prev` value lives in its registers and
  // the input sub-DAG is queried with no lock held — and then publishes the
  // extension: slot stores into the lock-free table (races write identical
  // values; models are pure) followed by a CAS-max of rec_len_.  Readers
  // below rec_len_ (acquire) are guaranteed a complete prefix.
  mutable AtomicCurveCache rec_;
  mutable std::atomic<std::size_t> rec_len_{0};
};

}  // namespace hem
