#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tempest/analysis/legality.hpp"
#include "tempest/analysis/statics/interval.hpp"
#include "tempest/dsl/expr.hpp"
#include "tempest/dsl/ir.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"

namespace tempest::dsl {

/// Equation class the pattern matcher recognises. Like Devito, the Operator
/// turns a symbolic specification into an optimised implementation; unlike
/// Devito (which JIT-compiles generated C), the lowering here selects among
/// the ahead-of-time-compiled kernels in physics/ — the moral equivalent of
/// dispatching to the generated code — while the IR pipeline exposes every
/// intermediate schedule for inspection.
///
/// The three hand-written classes are *fast paths*: any scalar equation
/// outside their exact pattern (extra coefficient grids, different damping
/// model, missing Laplacian, ...) classifies as Generic and runs through the
/// typed-IR frontend — dsl::lower_kernel discretises it, DslKernel executes
/// it under every schedule — instead of being rejected.
enum class KernelClass { IsoAcoustic, TTI, Elastic, Generic };

[[nodiscard]] const char* to_string(KernelClass k);

struct OperatorOptions {
  physics::Schedule schedule = physics::Schedule::SpaceBlocked;
  core::TileSpec tiles{};
  sparse::InterpKind interp = sparse::InterpKind::Trilinear;
  double dt = 0.0;  ///< 0 = model's critical dt
  /// Coefficient grids for Generic-class equations whose parameter names
  /// are not the model's own ("m", "damp", "vp" bind automatically).
  ParamBindings bindings{};

  /// Declared value intervals for fields and coefficient grids, enabling
  /// the construction-time statics passes before any model data exists:
  /// the update is abstractly interpreted over these bounds
  /// (possible-div-by-zero and unbounded growth reject the Operator), and
  /// when `dt` and `spacing` are set the von Neumann bound is checked at
  /// the space-order-2 floor — the loosest bound over admissible orders,
  /// so a construction-time rejection is definitive. Empty skips the
  /// construction-time passes; apply() always re-checks sharply against
  /// the concrete model.
  analysis::statics::BoundEnv declared_bounds{};
  /// Grid spacing for the construction-time CFL check; 0 = unknown until
  /// apply() binds a model geometry.
  double spacing = 0.0;
  /// Admit a dt beyond the static von Neumann bound (deliberate divergence
  /// experiments). Every non-stability statics pass still gates.
  bool allow_unstable = false;
};

/// The mini-Devito Operator: symbolic equations in, schedules and execution
/// out.
class Operator {
 public:
  Operator(std::vector<Eq> updates,
           std::vector<SparseTimeFunction::Injection> injections,
           std::vector<SparseTimeFunction::Interpolation> interpolations,
           OperatorOptions options = {});

  [[nodiscard]] KernelClass kernel_class() const { return class_; }
  [[nodiscard]] const OperatorOptions& options() const { return options_; }

  /// The lowered schedule as pseudocode, after the passes implied by the
  /// configured schedule: SpaceBlocked prints the Listing-1 nest;
  /// Wavefront prints the precomputed + fused + compressed + time-tiled
  /// nest of Listing 6.
  [[nodiscard]] std::string ccode() const;

  /// The schedule at each lowering stage (stage 0 = Listing 1, 1 = fused,
  /// 2 = compressed, 3 = time-tiled); exposed for tests and teaching.
  [[nodiscard]] std::string ccode_stage(int stage) const;

  /// The access summary the recognised kernel class declares, at a given
  /// space order (the structural shape — which fields, which time slices,
  /// substeps — is fixed by the class; only the radius scales).
  [[nodiscard]] analysis::AccessSummary access_summary(
      int space_order = 2) const;

  /// The space-time tiling the configured schedule implies for a kernel of
  /// the given space order (slope = declared per-timestep reach).
  [[nodiscard]] analysis::ScheduleDescriptor schedule_descriptor(
      int space_order = 2) const;

  /// Run the dependence analyzer + legality verifier over the nest at one
  /// lowering stage against the configured schedule. The constructor
  /// already requires stage >= 1 to be legal for time-tiled schedules (and
  /// stage 0 to be *rejected* when sparse operators are present — the
  /// paper's Fig. 4b as a machine-checked theorem); this re-runs the proof
  /// for inspection, optionally at a concrete space order.
  [[nodiscard]] analysis::LegalityReport verify_stage(
      int stage, int space_order = 2) const;

  /// Execute against concrete data. The model type must match the
  /// recognised kernel class. Re-proves the schedule legal at the model's
  /// space order; the propagator proves an explicit dt stable against the
  /// concrete model.
  physics::RunStats apply(const physics::AcousticModel& model,
                          const sparse::SparseTimeSeries& src,
                          sparse::SparseTimeSeries* rec = nullptr) const;
  physics::RunStats apply(const physics::TTIModel& model,
                          const sparse::SparseTimeSeries& src,
                          sparse::SparseTimeSeries* rec = nullptr) const;
  physics::RunStats apply(const physics::ElasticModel& model,
                          const sparse::SparseTimeSeries& src,
                          sparse::SparseTimeSeries* rec = nullptr) const;

 private:
  [[nodiscard]] ir::Node lower(int stage) const;
  /// Legality at the model's space order, then the propagator options.
  [[nodiscard]] physics::PropagatorOptions prepare(int space_order) const;

  std::vector<Eq> updates_;
  std::vector<SparseTimeFunction::Injection> injections_;
  std::vector<SparseTimeFunction::Interpolation> interpolations_;
  OperatorOptions options_;
  KernelClass class_;
  int slope_ = 1;
};

}  // namespace tempest::dsl
