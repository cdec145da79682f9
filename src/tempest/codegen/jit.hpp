#pragma once

#include <string>

#include "tempest/codegen/emit.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/util/error.hpp"

namespace tempest::codegen {

/// Compiler invocation failed after the retry budget (or timed out — a
/// deadline overrun is never retried, it would hang twice as long). Derives
/// from util::TransientError: the toolchain may recover on a later attempt,
/// so job-level retry policies treat it as retryable (the survey retries,
/// then degrades its `+jit` rung to the AOT kernel).
class JitCompileError : public util::TransientError {
 public:
  using util::TransientError::TransientError;
};

/// JIT host: compiles a C translation unit with the system C compiler into
/// a shared object and loads one symbol — the run-time half of the
/// Devito-style code generation workflow. The temporary artifacts live
/// under /tmp and are removed on *every* path, success or failure.
///
/// Hardened for long-running production use: honours $CC (falling back to
/// "cc"), retries failed compiles under the shared util::BackoffPolicy
/// (transient OOM kills and tmpfs races happen on loaded hosts; attempts
/// and base delay configurable via $TEMPEST_JIT_RETRIES /
/// $TEMPEST_JIT_RETRY_BASE_MS), and kills a compile that exceeds the
/// $TEMPEST_JIT_TIMEOUT_MS deadline (default 2 minutes) instead of hanging
/// the simulation behind a wedged compiler. Exhausted retries throw
/// JitCompileError.
class JitModule {
 public:
  /// Compile `c_source` and resolve `symbol_name`. Throws PreconditionError
  /// with the compiler diagnostics on failure. `extra_flags` is appended to
  /// the compile line (default: optimise + vectorise; -fopenmp-simd honours
  /// the generated `omp simd simdlen` pragmas without pulling in an
  /// OpenMP runtime, so JIT-compiled kernels stay single-threaded objects
  /// the task-parallel engine can schedule; -ffp-contract=off mirrors the
  /// engine build — the JIT'd C evaluates the same expression trees as the
  /// AOT kernels and the DslKernel tape, and bitwise cross-artifact
  /// comparisons require all three to round identically).
  JitModule(const std::string& c_source, const std::string& symbol_name,
            const std::string& extra_flags =
                "-O3 -fopenmp-simd -ffp-contract=off");

  JitModule(JitModule&& other) noexcept;
  JitModule& operator=(JitModule&& other) noexcept;
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;
  ~JitModule();

  [[nodiscard]] void* symbol() const { return sym_; }

  template <typename Fn>
  [[nodiscard]] Fn* as() const {
    return reinterpret_cast<Fn*>(sym_);
  }

 private:
  void* handle_ = nullptr;
  void* sym_ = nullptr;
  std::string so_path_;
};

/// The generated per-block update of one lowered kernel, compiled and
/// loaded: emit_dsl_c + JitModule. Attach fn() to the dsl::DslPropagator
/// that produced `lowered` and keep this object alive while it runs. Build
/// it after that propagator: its statics gate (stable dt, no out-of-halo
/// load) then runs before the compiler is paid for.
class CompiledBlock {
 public:
  explicit CompiledBlock(const dsl::LoweredKernel& lowered);

  [[nodiscard]] dsl::BlockFn* fn() const { return module_.as<dsl::BlockFn>(); }
  [[nodiscard]] const std::string& source_code() const { return source_; }

 private:
  std::string source_;
  JitModule module_;
};

}  // namespace tempest::codegen
