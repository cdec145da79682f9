#pragma once

// Tile-interference race prover — the third statics pass: the task-parallel
// engine's race-freedom, restated as a static theorem instead of a TSan
// observation.
//
// The prover proves the executed plan: the engine builds one core::BandPlan
// per run (plan_for below), proves it here, and hands the same object to
// engine::run_plan. Bands are separated by barriers; inside a band two tasks
// with *no path* in the band's TaskDag may execute concurrently — so the
// proof obligation, for every band and every unordered task pair (a, b), is:
//
//   the write footprint of `a` is disjoint from both the write and the read
//   footprint of `b` (and symmetrically), where footprints are concrete
//   (time-slot, x-range, y-range) boxes enumerated from the plan's rects and
//   the kernel's access descriptors.
//
// A substep over rect R writes its field's circular buffer slot
// (t + write_dt) mod slots over R, reads slots (t + k) mod slots (k in
// time_reads) over R grown by the stencil radius, and — when receivers are
// gathered — reads the freshly written slot over R (the fused_sample
// staging). The slot arithmetic is what makes the circular TimeBuffer
// aliasing (slice t and slice t + slots share storage) part of the theorem
// rather than an unmodelled hazard. Pairs whose task bounding boxes are
// disjoint are discharged without enumerating their boxes.
//
// The cross-check against the dynamic evidence (the TSan lane,
// parallel_determinism_test) is an acceptance criterion of the statics
// layer: the prover must return race-free exactly where TSan observes no
// race.

#include <string>
#include <vector>

#include "tempest/analysis/access.hpp"
#include "tempest/analysis/legality.hpp"
#include "tempest/core/band_plan.hpp"
#include "tempest/util/error.hpp"

namespace tempest::analysis::statics {

/// The band plan the executors run for `sched` over substeps
/// [s_begin, s_end) of `e`: the descriptor's slope is grid points per
/// substep and its tile_t the band height in substeps. `tiles` supplies the
/// tile and block sizes. Reference is one whole-domain block per substep;
/// Fused is wavefront with tile_t = 1; Diamond widens tile_x to
/// BandPlan::diamond_width.
[[nodiscard]] core::BandPlan plan_for(const ScheduleDescriptor& sched,
                                      const grid::Extents3& e,
                                      const core::TileSpec& tiles,
                                      int s_begin, int s_end);

/// What one substep of the kernel touches around its compute rect.
struct Footprint {
  int radius = 2;          ///< stencil halo reach (read grow)
  int write_dt = 1;        ///< written slice offset from the substep index
  std::vector<int> time_reads{0, -1};  ///< read slice offsets
  bool receivers = false;  ///< the fused gather's in-rect read

  [[nodiscard]] static Footprint from_summary(const AccessSummary& summary,
                                              bool receivers = false);
};

/// Verdict of the interference proof for one plan.
struct InterferenceReport {
  std::string plan;              ///< BandPlan::str() of the proven plan
  int tasks = 0;                 ///< tasks over every band
  long long unordered_pairs = 0; ///< pairs with no DAG path (checked)
  int conflicts = 0;             ///< overlapping footprint pairs found
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool race_free() const { return conflicts == 0; }
  [[nodiscard]] std::string str() const;
};

/// Check the write/write and write/read footprint disjointness obligation
/// for every unordered task pair of every band of `plan`.
[[nodiscard]] InterferenceReport prove_race_free(const core::BandPlan& plan,
                                                 const Footprint& footprint);

/// Thrown by the engine's pre-run gate when the proof fails; carries the
/// report with the offending tile pairs named.
class TileInterferenceError : public util::PreconditionError {
 public:
  explicit TileInterferenceError(InterferenceReport report);
  [[nodiscard]] const InterferenceReport& report() const { return report_; }

 private:
  InterferenceReport report_;
};

/// Throw TileInterferenceError unless the report is race-free.
void require_race_free(const InterferenceReport& report);

}  // namespace tempest::analysis::statics
