#pragma once

#include <string>

#include "tempest/dsl/lower.hpp"

namespace tempest::codegen {

/// C code generation for a DSL-lowered kernel — the Devito-style split: the
/// generated code is only the per-block loop nest, with the FD weights and
/// equation constants baked in as literals, and core::engine owns every
/// schedule around it (time loop, tiles, threads, fused sparse operators,
/// health scans, checkpoint/resume). jit.hpp compiles and loads the result
/// at run time; dsl::DslPropagator::attach_block drives it.
struct KernelSpec {
  int space_order = 4;
  /// No effect: the emitted block carries no schedule — the engine picks
  /// one per run. Kept only so existing callers that set it still compile.
  bool wavefront = false;
  /// Kernel name baked into the emitted symbol, so several generated
  /// modules can coexist in one process; usually the LoweredKernel name.
  std::string kernel = "acoustic";

  /// Emitted entry point name: a C identifier whatever the kernel name
  /// ("dsl-acoustic" becomes tempest_dsl_acoustic_so4).
  [[nodiscard]] std::string symbol() const;
};

/// Emit the C translation unit for `lowered`: exactly one exported
/// function, `spec.symbol()`, implementing the dsl::BlockFn ABI — the
/// per-block update over [x0,x1) x [y0,y1) x [z0,z1) as a float expression
/// in the exact association the lowering produced (compiled with
/// -ffp-contract=off it is bit-identical to the DslKernel tape).
/// `spec.space_order` must match the lowering.
[[nodiscard]] std::string emit_dsl_c(const dsl::LoweredKernel& lowered,
                                     const KernelSpec& spec);

}  // namespace tempest::codegen
