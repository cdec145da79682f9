#pragma once

// Statics facade: one call that runs the interval abstract interpretation,
// the CFL stability proof and the IR linter over a lowered kernel and
// folds the three verdicts into a single report, mirroring how
// analysis::verify_canonical folds the legality diagnostics. The gates —
// dsl::Operator construction and the DslPropagator / DslKernel engine
// adapter, which also guard any compiled block attached to them — call
// require_static_ok(); physics::Propagator construction proves an explicit
// dt with require_stable(). The tile-interference prover
// (interference.hpp) is gated separately by the engine because its input
// is the run's tile geometry, not the kernel.
//
// StaticVerificationError derives from util::PreconditionError, so the
// jobs layer classifies a statically rejected spec as a *permanent*
// failure (quarantine with diagnostics, never retried) exactly like an
// illegal schedule.

#include <string>
#include <vector>

#include "tempest/analysis/statics/interval.hpp"
#include "tempest/analysis/statics/lint.hpp"
#include "tempest/analysis/statics/stability.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/util/error.hpp"

namespace tempest::analysis::statics {

struct StaticsOptions {
  /// Declared value bounds for fields and coefficient grids; names absent
  /// evaluate to top (reported, and fatal if they reach a divisor).
  BoundEnv bounds;
  /// Names the runtime can bind; empty skips the unbound-param lint.
  std::vector<std::string> resolvable;
  /// Halo radius the execution layer allocates; -1 = the kernel's own.
  int declared_radius = -1;
  /// Skip the stability pass (callers without a meaningful dt/spacing, or
  /// whose own gate — physics::Propagator's — already ran it).
  bool check_stability = true;
};

/// Combined verdict of the three kernel-level statics passes.
struct StaticsReport {
  std::string kernel;
  IntervalReport intervals;
  StabilityVerdict stability;
  LintReport lint;

  [[nodiscard]] std::vector<Diagnostic> diagnostics() const;
  [[nodiscard]] int errors() const;
  [[nodiscard]] bool ok() const { return errors() == 0; }
  [[nodiscard]] std::string str() const;
};

/// Run all passes over one lowered kernel.
[[nodiscard]] StaticsReport verify_statics(const dsl::LoweredKernel& kernel,
                                           const StaticsOptions& options = {});

/// Thrown by the gates on a failed statics verdict; carries the report.
class StaticVerificationError : public util::PreconditionError {
 public:
  explicit StaticVerificationError(StaticsReport report);
  [[nodiscard]] const StaticsReport& report() const { return report_; }

 private:
  StaticsReport report_;
};

/// Throw StaticVerificationError unless the report is error-free.
void require_static_ok(const StaticsReport& report);

/// Throw StaticVerificationError (with a stability-only report) unless the
/// verdict is stable. The gates that have a dt but no lowered kernel tree
/// — physics::Propagator construction and the Operator constructor's
/// so=2 floor — use this.
void require_stable(const StabilityVerdict& verdict,
                    const std::string& kernel);

/// Bounds derived from a concrete acoustic model: vp/m/damp scanned over
/// the grid interiors (the halos are zero-initialised storage, not data —
/// including them would poison every positive lower bound), user bindings
/// scanned likewise, and the wavefield seeded from the source amplitude.
/// This is what the DslPropagator-construction gate uses — the sharpest
/// bounds available.
[[nodiscard]] BoundEnv model_bounds(const physics::AcousticModel& model,
                                    const dsl::ParamBindings& bindings,
                                    const std::string& field = "u",
                                    double amplitude = 1.0);

/// The resolvable parameter names for a model + bindings pair (the model's
/// conventional "m"/"damp"/"vp" plus every binding key), for the
/// unbound-param lint.
[[nodiscard]] std::vector<std::string> resolvable_names(
    const dsl::ParamBindings& bindings);

}  // namespace tempest::analysis::statics
