#pragma once

// The engine adapter for DSL-authored physics: a PhysicsKernel whose
// per-block update calls the lowered expression tree (dsl::lower) compiled
// to C (codegen::CompiledBlock) — or, when none is attached, evaluates the
// same tree in real_t via a postorder tape, the test oracle — plus a
// propagator on the physics::Propagator base every physics shares.
// DSL-authored equations thereby run under every schedule — reference,
// space-blocked, wavefront, fused, diamond — with trace, health
// monitoring, checkpointing, task parallelism and the autotuner unchanged,
// and (because both evaluators preserve the lowering's operand association
// under the project's value-safe FP flags) the acoustic equation authored
// in the DSL is bit-identical to the hand-written kernel.

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "tempest/analysis/access.hpp"
#include "tempest/config.hpp"
#include "tempest/core/engine.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::dsl {

/// The C ABI of a compiled per-block update (codegen::emit_dsl_c renders
/// it): writes `un` (slice t+1) over [x0,x1) x [y0,y1) x [z0,z1) from `uc`
/// (t) and `up` (t-1). Every pointer is a grid's interior origin, `prm[i]`
/// that of lowered.params[i]; sx/sy are the shared strides. Declared here,
/// with the kernel that calls it; codegen/ renders and compiles it.
using BlockFn = void(float* un, const float* uc, const float* up,
                     const float* const* prm, long sx, long sy, int x0,
                     int x1, int y0, int y1, int z0, int z1);
static_assert(std::is_same_v<real_t, float>,
              "BlockFn passes fields as float");

/// The isotropic acoustic equation m u_tt + damp u_t - lap(u) = 0, solved
/// for u.forward: what physics::AcousticPropagator hand-codes. Lowered at
/// the model's space order it reproduces that kernel bit for bit.
[[nodiscard]] Eq acoustic_equation();

/// Resolve a lowering's parameter names to coefficient grids: user bindings
/// win, then the model's own fields by conventional name ("m", "damp",
/// "vp"). Throws for names neither source provides. Shared by the engine
/// adapter and the block attach check so both execution paths bind
/// identically.
[[nodiscard]] std::vector<const grid::Grid3<real_t>*> resolve_params(
    const LoweredKernel& lowered, const physics::AcousticModel& model,
    const ParamBindings& bindings);

/// PhysicsKernel over a LoweredKernel: three-slot time buffer, single
/// injection/gather field, `dt^2 / m` injection scaling (the Devito
/// convention every tempest kernel uses). apply() runs `block` when one is
/// given, the tape otherwise.
class DslKernel {
 public:
  static constexpr int kSubstepsPerStep = 1;
  static constexpr int kFirstStep = 1;

  DslKernel(const LoweredKernel& lowered, const physics::AcousticModel& model,
            const ParamBindings& bindings, grid::TimeBuffer<real_t>& u,
            double dt, BlockFn* block = nullptr);

  [[nodiscard]] const grid::Extents3& extents() const {
    return model_.geom.extents;
  }
  [[nodiscard]] int radius() const { return model_.geom.radius(); }
  [[nodiscard]] analysis::AccessSummary access_summary() const {
    return lowered_.summary();
  }

  void apply(int t, const grid::Box3& box);

  /// One grid load of the tape: time slice offset (0 = t, -1 = t-1) and
  /// spatial offset from the update point.
  struct Load {
    int dt, dx, dy, dz;
  };
  /// Every load the tape performs per point, in tape order: the dynamic
  /// footprint of the evaluator that actually runs, for comparison against
  /// the structural hulls the lowering declared.
  [[nodiscard]] const std::vector<Load>& loads() const { return loads_; }

  [[nodiscard]] real_t inject_scale(int x, int y, int z) const {
    return dt2_ / model_.m(x, y, z);
  }
  [[nodiscard]] core::engine::FieldRefs inject_fields(int t) {
    return {{&u_.at(t + 1)}, 1};
  }
  [[nodiscard]] const grid::Grid3<real_t>& gather_field(int t) const {
    return u_.at(t + 1);
  }
  [[nodiscard]] core::engine::HealthFields health_fields(int t) {
    return {{{{field_name_.c_str(), &u_.at(t)}}}, 1};
  }

 private:
  /// One postorder tape instruction. Binary ops pop two, push one; leaves
  /// push one. Evaluation is real_t throughout, in the exact association
  /// the lowering emitted.
  struct Op {
    enum class K : std::uint8_t { Const, Load, Param, Add, Sub, Mul, Div };
    K k = K::Const;
    real_t c = 0;          ///< Const
    int slot = 0;          ///< Load: 0 = t, 1 = t-1
    std::ptrdiff_t off = 0;  ///< Load: dx*sx + dy*sy + dz
    int param = 0;         ///< Param: index into prm_
  };

  int flatten(const ir::Expr& e);

  /// The tape walk over one block. Out of line so the compiled-block
  /// dispatch in apply() leaves the tape loop's code generation alone:
  /// fused into apply(), the tape ran the dsl-sponge benchmark 9-25%
  /// slower (GCC 12, 4-vCPU Xeon). Cache-line aligned so its speed does not
  /// depend on where unrelated code lands in the binary: with identical
  /// object code, a 16-byte shift of its start address (from edits
  /// elsewhere in the library) made the serial sponge run ~20% slower on a
  /// 4-vCPU Xeon (model 207, GCC 12).
  [[gnu::noinline, gnu::aligned(64)]] void apply_tape(int t,
                                                      const grid::Box3& b);

  const LoweredKernel& lowered_;
  const physics::AcousticModel& model_;
  grid::TimeBuffer<real_t>& u_;
  std::string field_name_;
  std::vector<const real_t*> prm_;  ///< param origins, lowered_.params order
  std::vector<Op> tape_;
  BlockFn* block_;
  real_t dt2_;
  std::ptrdiff_t sx_, sy_;
  std::vector<Load> loads_;
};

static_assert(core::engine::PhysicsKernel<DslKernel>);

/// Propagator over a DSL-authored equation: lowers the Eq at construction
/// (space order / spacing from the model's geometry, dt resolved and
/// stability-gated by physics::Propagator), runs the statics gate, then
/// attaches the lowering's compiled block (codegen::CompiledBlock, one
/// compile per equation and compiler per process; a failed compile throws
/// codegen::JitCompileError). It shares every propagator's run / resume /
/// checkpoint surface, so DSL kernels slot into surveys, RTM and the bench
/// drivers unchanged. `name` is the kernel's name and the family its
/// diagnostics carry.
class DslPropagator final : public physics::Propagator {
 public:
  DslPropagator(const Eq& eq, const physics::AcousticModel& model,
                physics::PropagatorOptions opts = {},
                ParamBindings bindings = {}, std::string name = "dsl");

  /// Run every block through `block`, an update with the ABI and the
  /// arithmetic of lowered() — the constructor attaches the compiled one;
  /// nullptr selects the tape, the oracle tests compare it with. The
  /// caller keeps the code loaded while this propagator runs. Checks the
  /// generated code's alignment contract here: every wavefield and
  /// parameter allocation on a 64-byte base.
  void attach_block(BlockFn* block);

  [[nodiscard]] const grid::Grid3<real_t>& wavefield(int t) const {
    return u_.at(t);
  }

  [[nodiscard]] const LoweredKernel& lowered() const { return lowered_; }

 private:
  physics::RunStats run_kernel(int t_begin, physics::Schedule sched,
                               const sparse::SparseTimeSeries& src,
                               sparse::SparseTimeSeries* rec,
                               const physics::StepCallback& on_step) override;

  const physics::AcousticModel& model_;
  LoweredKernel lowered_;
  ParamBindings bindings_;
  grid::TimeBuffer<real_t> u_;
  BlockFn* block_ = nullptr;
};

}  // namespace tempest::dsl
