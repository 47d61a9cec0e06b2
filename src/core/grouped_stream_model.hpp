#pragma once

/// \file grouped_stream_model.hpp
/// Hierarchical SINGLE-stream event model in the style of Albers et al.
/// (cited as [1] by the paper): each event of an outer stream does not
/// stand for a single event but for an entire embedded inner sequence.
///
/// This is the related-work baseline the paper contrasts with: it can
/// describe the burst structure of ONE stream precisely (e.g. "every frame
/// carries B signal updates back to back"), but it remains a flat stream -
/// there is no notion of which embedded event belongs to which original
/// signal, so receiver-side unpacking is impossible.  The comparison
/// benchmark (bench_ablation_grouped) quantifies the difference.
///
/// Model: every outer event releases a group of `group_size` inner events
/// spaced `spacing` apart.  Sound conservative curves (groups may overlap
/// arbitrarily, so per-group block reasoning only bounds, not determines,
/// the merged stream):
///
///   delta-(n) = max(0, delta-_out(ceil(n / B)) - (B - 1) * s)
///   delta+(n) = delta+_out(floor((n - 2) / B) + 2) + (B - 1) * s
///
/// (n events touch at least ceil(n/B) distinct groups; n consecutive
/// events span at most floor((n-2)/B) + 2 groups plus the intra-group
/// spread.)

#include <string>

#include "core/event_model.hpp"

namespace hem {

class GroupedStreamModel final : public EventModel {
 public:
  /// \param outer       event model of the group releases.
  /// \param group_size  B >= 1 inner events per outer event.
  /// \param spacing     s >= 0 distance between inner events of one group.
  GroupedStreamModel(ModelPtr outer, Count group_size, Time spacing);

  [[nodiscard]] Count group_size() const noexcept { return group_size_; }
  [[nodiscard]] Time spacing() const noexcept { return spacing_; }

  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] Time delta_min_raw(Count n) const override;
  [[nodiscard]] Time delta_plus_raw(Count n) const override;
  [[nodiscard]] double long_run_rate_raw() const override;

 private:
  ModelPtr outer_;
  Count group_size_;
  Time spacing_;
};

}  // namespace hem
