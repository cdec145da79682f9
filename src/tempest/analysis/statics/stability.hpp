#pragma once

// Static von Neumann / CFL stability check — the second statics pass.
//
// For the second-order-in-time acoustic family the von Neumann analysis
// bounds the stable timestep by
//
//     dt  <=  2 h / (vp_max * sqrt(3 * S1)),    S1 = sum_k |w_k|
//
// where w_k are the 1-D second-derivative FD coefficients at the
// operator's *real* space order (stencil::central(2, so)) and the factor 3
// is the worst-case constructive interference of the three axes. The
// amplification factor of the update matrix exceeds 1 exactly when dt
// exceeds that bound, so a violating spec is statically known to diverge —
// no grid data needed beyond the velocity interval.
//
// This is the same derivation stencil::acoustic_dt encodes with a 0.9
// safety factor; here the *hard* bound (safety 1) is checked so specs
// produced from model.critical_dt() always pass, and anything beyond the
// mathematical limit is rejected at operator / propagator construction
// unless OperatorOptions::allow_unstable opts out.

#include <string>
#include <vector>

#include "tempest/analysis/legality.hpp"
#include "tempest/analysis/statics/interval.hpp"

namespace tempest::analysis::statics {

/// Verdict of the static stability check for one (dt, h, order, velocity
/// interval) specification.
struct StabilityVerdict {
  double dt = 0.0;       ///< proposed timestep (ms)
  double bound = 0.0;    ///< hard von Neumann bound (ms); 0 when unknown
  double vp_max = 0.0;   ///< velocity upper bound used
  double spacing = 0.0;  ///< grid spacing h
  int space_order = 0;
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool stable() const;  ///< no Error-severity diagnostics
  [[nodiscard]] std::string str() const;
};

/// Check `dt` against the acoustic von Neumann bound derived from the FD
/// coefficients at `space_order` and the declared velocity interval.
/// Unbounded or non-positive velocity intervals are themselves errors
/// ("unbound-velocity"): no stability statement can be made.
[[nodiscard]] StabilityVerdict check_acoustic_stability(double dt,
                                                        double spacing,
                                                        int space_order,
                                                        const Interval& vp);

/// Check `dt` against an externally derived hard bound (the TTI/elastic
/// families, whose bounds stencil::tti_dt / stencil::elastic_dt produce).
/// `family` names the kernel family in the diagnostic.
[[nodiscard]] StabilityVerdict check_bound(double dt, double bound,
                                           double vp_max, double spacing,
                                           int space_order,
                                           const std::string& family);

}  // namespace tempest::analysis::statics
