#pragma once

#include "tempest/config.hpp"
#include "tempest/dsl/expr.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::dsl {

/// Reference interpreter for scalar second-order-in-time equations.
///
/// Evaluates the *symbolic equation tree* point-by-point on tiny grids —
/// no pattern matching, no hand-written kernel — and is therefore an
/// independent oracle for the compiled acoustic kernel: tests assert the
/// optimised propagator and the interpreter agree.
///
/// Semantics: each timestep solves equation(u.forward) == 0 for u.forward at
/// every interior point. The equation must be *linear* in the forward value
/// (true of every explicit FD update); linearity lets the interpreter solve
/// by evaluating the tree at two trial values:
///   A = eq(1) - eq(0),  B = eq(0),  u.forward = -B / A.
/// Derivative nodes are evaluated with the reference stencil helpers;
/// Param nodes resolve by name against the model ("m", "damp").
class Interpreter {
 public:
  /// `update` is the Eq produced by solve(); `space_order` controls the
  /// derivative stencils; `dt` the timestep.
  Interpreter(Eq update, const physics::AcousticModel& model, double dt);

  /// Propagate src for src.nt() steps with naive injection (scale dt^2/m)
  /// and return the final wavefield. O(points * nt * tree) — tiny grids.
  [[nodiscard]] grid::Grid3<real_t> run(const sparse::SparseTimeSeries& src,
                                        sparse::InterpKind kind) const;

 private:
  Eq update_;
  const physics::AcousticModel& model_;
  double dt_;
  std::string field_name_;
};

}  // namespace tempest::dsl
