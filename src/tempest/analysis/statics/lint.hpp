#pragma once

// IR linter over a lowered kernel — the structural half of the statics
// layer. Where the interval pass reasons about *values*, the linter
// reasons about the tree's *shape* against the kernel's own declarations:
//
//  * "out-of-halo-read" (error) — a load whose spatial offset exceeds the
//    declared halo radius. Unreachable through the DSL frontend (loads are
//    generated from the FD coefficients, bounded by space_order/2), so a
//    hit means a corrupted or hand-built LoweredKernel whose execution
//    would read unallocated halo memory; the DslKernel adapter refuses
//    such trees, whether its blocks run on the tape or on compiled code
//    (see the gates in dsl/kernel.cpp).
//  * "footprint-mismatch" (error) — a load outside the access hull the
//    kernel declares for its time slice, or a load of a time slice with no
//    declared read access at all. The declared hulls feed the legality
//    verifier, so a mismatch means the machine-checked schedule proof
//    talks about a different kernel than the one that executes.
//  * "unbound-param" (error) — a coefficient-grid name that no
//    ParamBindings entry or model field will resolve; caught before the
//    runtime binding error, with the full resolvable list in the message.
//  * "dead-subexpression" (note) — multiply-by-constant-zero and
//    add/subtract-of-constant-zero subtrees: computed every grid point,
//    contributing nothing.
//  * duplicate-subtree / CSE statistics (note) — structurally identical
//    binary subtrees evaluated more than once, the common-subexpression
//    work a folding pass could hoist.

#include <string>
#include <vector>

#include "tempest/analysis/legality.hpp"
#include "tempest/dsl/lower.hpp"

namespace tempest::analysis::statics {

struct LintOptions {
  /// Halo radius the execution layer allocates; -1 uses the kernel's own
  /// declared radius (the accesses' hull).
  int declared_radius = -1;
  /// Names the runtime can bind ("m", "damp", "vp" plus the ParamBindings
  /// keys). Empty disables the unbound-param check.
  std::vector<std::string> resolvable;
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;
  int duplicate_subtrees = 0;  ///< distinct shapes occurring more than once
  int duplicate_ops = 0;       ///< redundant binary ops a CSE pass removes

  [[nodiscard]] bool clean() const;  ///< no Error-severity diagnostics
  [[nodiscard]] std::string str() const;
};

[[nodiscard]] LintReport lint_kernel(const dsl::LoweredKernel& kernel,
                                     const LintOptions& options = {});

}  // namespace tempest::analysis::statics
