#pragma once

// The propagator surface every physics shares. Schedule dispatch, run
// statistics and the option set live in core/engine.hpp — exactly once, for
// every kernel; this header re-exports them under the tempest::physics names
// the propagators, examples and benches use, and defines the one
// run / resume / checkpoint / stability-gate shell around them.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "tempest/config.hpp"
#include "tempest/core/engine.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

using Schedule = core::engine::Schedule;
using core::engine::schedule_from_string;
using core::engine::to_string;

using RunStats = core::engine::RunStats;
using StepCallback = core::engine::StepCallback;
using PropagatorOptions = core::engine::ExecutionOptions;

/// Base of every propagator (acoustic, TTI, VTI, elastic, DSL-authored).
/// It owns the options, the resolved timestep, the first computable step
/// and the ordered list of state slices (the grids a checkpoint carries, in
/// checkpoint order); a physics adds its kernel, allocates its fields,
/// registers them with add_state() and builds its kernel in run_kernel().
///
/// Construction resolves dt (opts.dt, or the model's critical dt when 0)
/// and, for an explicit opts.dt, proves it against the model family's hard
/// von Neumann bound, critical_dt(1): a dt beyond it throws
/// analysis::statics::StaticVerificationError naming the family, unless
/// opts.allow_unstable is set. critical_dt() passes by construction, so a
/// default-dt construction runs no check.
///
/// Propagators hold pointers into their own fields: not copyable or movable.
class Propagator {
 public:
  virtual ~Propagator() = default;
  Propagator(const Propagator&) = delete;
  Propagator& operator=(const Propagator&) = delete;

  /// Propagate `src` for src.nt() timesteps from zeroed state, recording
  /// into `rec` if non-null (rec->nt() must be >= src.nt()); run() is
  /// run_from(first step, ...) after zeroing the state and `rec`. The
  /// model passed at construction must outlive the propagator. `on_step`
  /// is called after each fully computed timestep (barrier schedules only,
  /// see core::engine::StepCallback).
  RunStats run(Schedule sched, const sparse::SparseTimeSeries& src,
               sparse::SparseTimeSeries* rec = nullptr,
               const StepCallback& on_step = {});

  /// Resume a run whose timesteps < t_begin are already computed: neither
  /// the state nor `rec` is zeroed, and the time loop starts at t_begin.
  /// Seed the state with restore() from a checkpoint captured at t_begin
  /// (capture()'s `step` is the next run_from()'s `t_begin`). A resumed run
  /// reproduces the uninterrupted one bitwise when it uses the same
  /// schedule and options.
  RunStats run_from(int t_begin, Schedule sched,
                    const sparse::SparseTimeSeries& src,
                    sparse::SparseTimeSeries* rec = nullptr,
                    const StepCallback& on_step = {});

  /// Snapshot the full propagation state after timestep `step` completed
  /// (call from a StepCallback, where a global time barrier exists). The
  /// checkpoint carries copies of the state slices in registration order,
  /// the gather recorded so far (when `rec` is non-null) and the caller's
  /// config fingerprint.
  [[nodiscard]] resilience::Checkpoint capture(
      int step, std::uint64_t fingerprint,
      const sparse::SparseTimeSeries* rec = nullptr) const;

  /// Seed the state slices from a checkpoint. Throws
  /// resilience::CheckpointMismatchError when the checkpoint's slice count
  /// or grid geometry does not match this propagator.
  void restore(const resilience::Checkpoint& ck);

  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] const PropagatorOptions& options() const { return opts_; }

 protected:
  template <typename Model>
  Propagator(const Model& model, const PropagatorOptions& opts,
             std::string family, int first_step)
      : Propagator(opts, std::move(family), first_step, model.geom,
                   opts.dt > 0.0 ? opts.dt : model.critical_dt()) {
    TEMPEST_REQUIRE_MSG(model.vp.halo() == model.geom.radius(),
                        "model fields must carry halo == stencil radius");
    if (opts.dt > 0.0 && !opts.allow_unstable) {
      require_stable(model.critical_dt(/*safety=*/1.0), model.vp_max(),
                     model.geom);
    }
  }

  /// Register state slices, in checkpoint order: every slot of a time
  /// buffer, or single grids.
  void add_state(grid::TimeBuffer<real_t>& buffer);
  void add_state(std::initializer_list<grid::Grid3<real_t>*> grids);

 private:
  Propagator(const PropagatorOptions& opts, std::string family,
             int first_step, const Geometry& geom, double dt);

  /// Build this physics' kernel over the state and run it from t_begin.
  virtual RunStats run_kernel(int t_begin, Schedule sched,
                              const sparse::SparseTimeSeries& src,
                              sparse::SparseTimeSeries* rec,
                              const StepCallback& on_step) = 0;

  /// Throw StaticVerificationError naming the family if dt_ > `bound`.
  void require_stable(double bound, double vp_max, const Geometry& geom) const;

  PropagatorOptions opts_;
  std::string family_;  ///< the name stability diagnostics carry
  int first_step_;      ///< 1 for second order in time, 0 for first order
  double dt_;
  std::vector<grid::Grid3<real_t>*> state_;
};

}  // namespace tempest::physics
