#pragma once

#include <string>

#include "tempest/core/band_plan.hpp"
#include "tempest/dsl/lower.hpp"

namespace tempest::codegen {

/// C code generation for the acoustic update — the Devito-style path: where
/// the physics/ kernels are ahead-of-time compiled C++, this module *emits*
/// a freestanding C translation unit from the problem parameters (space
/// order, schedule, tile shape), exactly like Devito's generated operators:
/// FD weights appear as literals, the sparse injection is the fused
/// compressed loop of Listing 5, and the wave-front schedule is the tiled
/// nest of Listing 6. jit.hpp compiles and loads the result at run time.
struct KernelSpec {
  int space_order = 4;
  bool wavefront = false;  ///< false = space-blocked baseline schedule
  core::TileSpec tiles{};
  /// Preferred SIMD lane count (floats) for the generated inner loop's
  /// `#pragma omp simd simdlen(...)` clause: 8 fills an AVX2 register,
  /// 16 an AVX-512 one (util::kAlignment / sizeof(float)). 0 emits a
  /// plain `omp simd` and lets the compiler pick. A hint, not an ABI
  /// change — every width computes identical results.
  int simd_width = 8;
  /// Kernel name baked into the emitted symbol. The hand-maintained
  /// acoustic emitter keeps the historical "acoustic" default; DSL-lowered
  /// kernels carry their LoweredKernel name so several generated modules
  /// can coexist in one process.
  std::string kernel = "acoustic";
  /// Timestep (ms) the compiled kernel will be driven at; 0 selects the
  /// model's critical dt. The JIT hosts prove this dt stable against the
  /// static von Neumann bound *before* paying for a compiler invocation —
  /// a statically diverging spec is a caller bug, not a toolchain failure,
  /// so it throws instead of taking the interpreter-fallback path.
  double dt = 0.0;

  /// Emitted entry point name.
  [[nodiscard]] std::string symbol() const {
    return "tempest_" + kernel + "_" +
           (wavefront ? "wavefront" : "spaceblocked") + "_so" +
           std::to_string(space_order);
  }
};

/// The C signature every generated kernel implements. u0/u1/u2 are the
/// interior origins of the three circular time slots (slot k holds
/// timestep t with t % 3 == k); cs_* are the CompressedSparse CSR arrays
/// (may be null when npts == 0).
inline constexpr const char* kSignatureDoc = R"(
void SYMBOL(float* u0, float* u1, float* u2,
            const float* m, const float* damp,
            int nx, int ny, int nz,
            long sx, long sy,
            int t_begin, int t_end,
            float inv_h2, float idt2, float i2dt, float dt2,
            const int* cs_offsets, const int* cs_z, const int* cs_id,
            const float* dcmp, int npts);
)";

/// Emit the full C translation unit for `spec`.
[[nodiscard]] std::string emit_acoustic_c(const KernelSpec& spec);

/// The C signature generated for DSL-lowered kernels. The per-point update
/// is baked in as a float expression (FD weights and equation constants as
/// literals, in the exact association the lowering produced, compiled with
/// -ffp-contract=off), so the only varying inputs are the coefficient grids:
/// prm[i] is the interior origin of lowered.params[i].
inline constexpr const char* kDslSignatureDoc = R"(
void SYMBOL(float* u0, float* u1, float* u2,
            const float* m, const float* const* prm,
            int nx, int ny, int nz,
            long sx, long sy,
            int t_begin, int t_end, float dt2,
            const int* cs_offsets, const int* cs_zid,
            const float* dcmp, int npts);
)";

/// Emit the full C translation unit for a DSL-lowered kernel: the same
/// schedule skeletons and fused compressed injection as the acoustic
/// emitter, with the update body generated from the typed expression tree
/// instead of the hand-maintained template. `spec.kernel` should be
/// `lowered.name`; `spec.space_order` must match the lowering.
[[nodiscard]] std::string emit_dsl_c(const dsl::LoweredKernel& lowered,
                                     const KernelSpec& spec);

}  // namespace tempest::codegen
