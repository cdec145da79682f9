#include "tempest/dsl/operator.hpp"

#include <algorithm>

#include "tempest/analysis/statics/stability.hpp"
#include "tempest/analysis/statics/verify.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/dsl/passes.hpp"
#include "tempest/util/error.hpp"

namespace tempest::dsl {

const char* to_string(KernelClass k) {
  switch (k) {
    case KernelClass::IsoAcoustic: return "isotropic-acoustic";
    case KernelClass::TTI: return "anisotropic-acoustic-tti";
    case KernelClass::Elastic: return "isotropic-elastic";
    case KernelClass::Generic: return "generic";
  }
  return "?";
}

namespace {

/// Structural classification of the update equations, the "pattern match"
/// of the lowering. Rules:
///  * any equation using Div/GradSym derivatives  -> Elastic
///  * any equation using the rotated operators    -> TTI (two fields)
///  * a Dt2 + Laplace scalar equation whose coefficients are the acoustic
///    model's own (m, damp)                       -> IsoAcoustic (fast path)
///  * any other scalar equation with a time derivative -> Generic, handled
///    by the typed-IR frontend (lower_kernel + DslKernel) rather than a
///    hand-written kernel.
KernelClass classify(const std::vector<Eq>& updates) {
  TEMPEST_REQUIRE_MSG(!updates.empty(), "Operator needs update equations");
  bool any_rot = false, any_vec = false, any_lap = false, any_dt2 = false;
  bool any_dt = false;
  std::vector<std::string> fields;
  bool params_are_acoustic = true;
  for (const Eq& eq : updates) {
    if (contains_deriv(eq.rhs, DerivKind::Div, "") ||
        contains_deriv(eq.rhs, DerivKind::GradSym, "")) {
      any_vec = true;
    }
    if (contains_deriv(eq.rhs, DerivKind::RotLapHz, "") ||
        contains_deriv(eq.rhs, DerivKind::RotLapHp, "")) {
      any_rot = true;
    }
    if (contains_deriv(eq.rhs, DerivKind::Laplace, "")) any_lap = true;
    if (contains_deriv(eq.rhs, DerivKind::Dt2, "")) any_dt2 = true;
    if (contains_deriv(eq.rhs, DerivKind::Dt, "")) any_dt = true;
    for (const std::string& f : referenced_fields(eq.rhs)) {
      if (std::find(fields.begin(), fields.end(), f) == fields.end()) {
        fields.push_back(f);
      }
    }
    for (const std::string& p : referenced_params(eq.rhs)) {
      if (p != "m" && p != "damp") params_are_acoustic = false;
    }
  }
  if (any_vec) {
    TEMPEST_REQUIRE_MSG(!any_rot && !any_lap,
                        "cannot mix elastic and acoustic operators");
    return KernelClass::Elastic;
  }
  if (any_rot) {
    TEMPEST_REQUIRE_MSG(fields.size() == 2,
                        "TTI needs exactly two coupled wavefields");
    TEMPEST_REQUIRE_MSG(any_dt2, "TTI equations are second order in time");
    return KernelClass::TTI;
  }
  TEMPEST_REQUIRE_MSG(fields.size() == 1,
                      "scalar equations update a single wavefield");
  if (any_lap && any_dt2 && params_are_acoustic) {
    return KernelClass::IsoAcoustic;
  }
  TEMPEST_REQUIRE_MSG(any_dt2 || any_dt,
                      "unrecognised equation class: no time derivative");
  TEMPEST_REQUIRE_MSG(updates.size() == 1,
                      "generic scalar equations lower one update at a time");
  return KernelClass::Generic;
}

}  // namespace

Operator::Operator(std::vector<Eq> updates,
                   std::vector<SparseTimeFunction::Injection> injections,
                   std::vector<SparseTimeFunction::Interpolation> interps,
                   OperatorOptions options)
    : updates_(std::move(updates)),
      injections_(std::move(injections)),
      interpolations_(std::move(interps)),
      options_(options),
      class_(classify(updates_)) {
  TEMPEST_REQUIRE(options_.tiles.valid());
  // The wave-front slope is the per-(half-)step dependency radius; the
  // concrete radius is bound at apply() time from the model's space order —
  // here we record the class-level slope semantics for ccode().
  slope_ = 1;

  // Machine-check the paper's Fig. 4b at operator build time: under any
  // temporally blocked schedule the naive Listing-1 nest must be *rejected*
  // when off-the-grid sparse operators are present (their map()-indirected
  // accesses carry unbounded dependence distances), and the lowered
  // precomputed + fused nests must be accepted. A failure of either
  // direction is a lowering bug, caught before any data is touched.
  if (schedule_descriptor().time_tiled()) {
    if (!injections_.empty() || !interpolations_.empty()) {
      const analysis::LegalityReport naive = verify_stage(0);
      TEMPEST_REQUIRE_MSG(!naive.legal(),
                          "legality verifier failed to reject the naive "
                          "sparse nest under a time-tiled schedule");
    }
    analysis::require_legal(verify_stage(1));
    analysis::require_legal(verify_stage(2));
  }

  // Construction-time statics (see analysis/statics/): with declared value
  // bounds the Generic update is abstractly interpreted before any model
  // exists — possible-div-by-zero or unbounded growth rejects the Operator
  // here, not at the first apply(). The lowering uses placeholder spacing /
  // dt (the interval semantics of the update do not depend on them beyond
  // the constant weights, and stability is checked separately below).
  namespace statics = analysis::statics;
  if (!options_.declared_bounds.empty() && class_ == KernelClass::Generic) {
    statics::StaticsOptions sopts;
    sopts.bounds = options_.declared_bounds;
    sopts.check_stability = false;
    statics::require_static_ok(statics::verify_statics(
        lower_kernel(updates_.front(), /*space_order=*/2, /*spacing=*/10.0,
                     /*dt=*/1.0, "generic"),
        sopts));
  }
  // Static CFL proof at the space-order-2 floor: S1 = sum|w| grows with
  // the order, so the so=2 bound is the loosest over admissible orders —
  // a dt it rejects is unstable at *every* order, making the rejection
  // definitive with no model bound yet. apply() re-checks sharply.
  if (options_.dt > 0.0 && options_.spacing > 0.0 &&
      !options_.allow_unstable) {
    const auto vp = options_.declared_bounds.find("vp");
    if (vp != options_.declared_bounds.end()) {
      statics::require_stable(
          statics::check_acoustic_stability(options_.dt, options_.spacing,
                                            /*space_order=*/2, vp->second),
          to_string(class_));
    }
  }
}

analysis::AccessSummary Operator::access_summary(int space_order) const {
  switch (class_) {
    case KernelClass::IsoAcoustic:
      return physics::acoustic_access_summary(space_order);
    case KernelClass::TTI: return physics::tti_access_summary(space_order);
    case KernelClass::Elastic:
      return physics::elastic_access_summary(space_order);
    case KernelClass::Generic:
      // The structural shape (radius, time slices read) does not depend on
      // spacing or dt; lower with placeholder values.
      return lower_kernel(updates_.front(), space_order, /*spacing=*/10.0,
                          /*dt=*/1.0, "generic")
          .summary();
  }
  TEMPEST_REQUIRE_MSG(false, "unreachable kernel class");
  return {};
}

analysis::ScheduleDescriptor Operator::schedule_descriptor(
    int space_order) const {
  // The declared radius is already the per-timestep dependence reach (the
  // elastic summary folds its two half-steps in), so it is exactly the
  // wave-front slope the engine skews by.
  const int slope = access_summary(space_order).radius;
  const int tile_t = std::max(1, options_.tiles.tile_t);
  switch (options_.schedule) {
    case physics::Schedule::Reference:
      return analysis::ScheduleDescriptor::reference();
    case physics::Schedule::SpaceBlocked:
      return analysis::ScheduleDescriptor::space_blocked();
    case physics::Schedule::Wavefront:
      return analysis::ScheduleDescriptor::wavefront(slope, tile_t);
    case physics::Schedule::Diamond:
      return analysis::ScheduleDescriptor::diamond(slope, tile_t);
  }
  TEMPEST_REQUIRE_MSG(false, "unreachable schedule");
  return {};
}

analysis::LegalityReport Operator::verify_stage(int stage,
                                                int space_order) const {
  return analysis::verify_nest(lower(stage), access_summary(space_order),
                               schedule_descriptor(space_order));
}

ir::Node Operator::lower(int stage) const {
  TEMPEST_REQUIRE(stage >= 0 && stage <= 3);
  const std::string kernel_text =
      std::string("A_") + to_string(class_) + "(t, x, y, z)";
  ir::Node root = passes::build_timestepping(
      kernel_text, !injections_.empty(), !interpolations_.empty());
  if (stage >= 1) passes::precompute_and_fuse(root);
  if (stage >= 2) passes::compress_iteration_space(root);
  if (stage >= 3) passes::time_tile(root, slope_);
  return root;
}

std::string Operator::ccode_stage(int stage) const {
  return ir::print(lower(stage));
}

std::string Operator::ccode() const {
  const int stage =
      options_.schedule == physics::Schedule::Wavefront ? 3 : 0;
  return ccode_stage(stage);
}

// The propagator then proves an explicit dt against its model's hard bound
// at construction: the sharp re-check of the constructor's so=2 floor.
physics::PropagatorOptions Operator::prepare(int space_order) const {
  if (schedule_descriptor().time_tiled()) {
    analysis::require_legal(verify_stage(2, space_order));
  }
  physics::PropagatorOptions popts;
  popts.tiles = options_.tiles;
  popts.interp = options_.interp;
  popts.dt = options_.dt;
  popts.allow_unstable = options_.allow_unstable;
  return popts;
}

physics::RunStats Operator::apply(const physics::AcousticModel& model,
                                  const sparse::SparseTimeSeries& src,
                                  sparse::SparseTimeSeries* rec) const {
  TEMPEST_REQUIRE_MSG(
      class_ == KernelClass::IsoAcoustic || class_ == KernelClass::Generic,
      "equations are not a scalar wavefield update");
  const physics::PropagatorOptions popts = prepare(model.geom.space_order);
  if (class_ == KernelClass::Generic) {
    DslPropagator prop(updates_.front(), model, popts, options_.bindings,
                       "generic");
    return prop.run(options_.schedule, src, rec);
  }
  physics::AcousticPropagator prop(model, popts);
  return prop.run(options_.schedule, src, rec);
}

physics::RunStats Operator::apply(const physics::TTIModel& model,
                                  const sparse::SparseTimeSeries& src,
                                  sparse::SparseTimeSeries* rec) const {
  TEMPEST_REQUIRE_MSG(class_ == KernelClass::TTI,
                      "equations are not the TTI coupled system");
  physics::TTIPropagator prop(model, prepare(model.geom.space_order));
  return prop.run(options_.schedule, src, rec);
}

physics::RunStats Operator::apply(const physics::ElasticModel& model,
                                  const sparse::SparseTimeSeries& src,
                                  sparse::SparseTimeSeries* rec) const {
  TEMPEST_REQUIRE_MSG(class_ == KernelClass::Elastic,
                      "equations are not the elastic velocity-stress system");
  physics::ElasticPropagator prop(model, prepare(model.geom.space_order));
  return prop.run(options_.schedule, src, rec);
}

}  // namespace tempest::dsl
