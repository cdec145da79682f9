#pragma once

#include "tempest/analysis/access.hpp"
#include "tempest/config.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/physics/propagator.hpp"

namespace tempest::physics {

/// Access shape the isotropic acoustic stencil declares to the schedule
/// legality verifier: u[t+1] written from a ±radius read of u[t] and a
/// centre read of u[t-1] (second order in time, one substep per step).
[[nodiscard]] analysis::AccessSummary acoustic_access_summary(int space_order);

/// Isotropic acoustic wave propagator (paper Section III.A):
///   m d²u/dt² + damp du/dt − Δu = src,   d(t) = u(t, x_r)
/// second order in time, configurable even space order, single-precision
/// fields, absorbing sponge boundaries.
///
/// All four schedules (see core::engine::Schedule): an unblocked reference,
/// the spatially-blocked vectorized baseline the paper compares against, and
/// the wave-front and diamond temporally blocked variants enabled by the
/// core/ precompute pipeline. All produce the same wavefield (bit-exact for a single
/// source; to rounding when several sources share support points, since the
/// decomposition pre-sums their contributions).
class AcousticPropagator final : public Propagator {
 public:
  AcousticPropagator(const AcousticModel& model, PropagatorOptions opts = {});

  /// Wavefield at logical timestep t of the last run (only the last three
  /// timesteps are live in the circular buffer).
  [[nodiscard]] const grid::Grid3<real_t>& wavefield(int t) const {
    return u_.at(t);
  }

 private:
  RunStats run_kernel(int t_begin, Schedule sched,
                      const sparse::SparseTimeSeries& src,
                      sparse::SparseTimeSeries* rec,
                      const StepCallback& on_step) override;

  const AcousticModel& model_;
  grid::TimeBuffer<real_t> u_;
};

}  // namespace tempest::physics
