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

/// The flags every generated module compiles with: optimise + vectorise
/// (-fopenmp-simd honours the generated `omp simd simdlen` pragmas without
/// pulling in an OpenMP runtime, so JIT-compiled kernels stay
/// single-threaded objects the task-parallel engine can schedule),
/// -ffp-contract=off as in the library build (the JIT'd C evaluates the
/// same expression trees as the AOT kernels and the DslKernel tape, and
/// bitwise cross-artifact comparisons require all three to round
/// identically), and the library's own ISA flags (-march=native when the
/// build uses it), so generated and AOT kernels target the same machine.
[[nodiscard]] const std::string& default_jit_flags();

/// The compiler invocation without its file arguments: $CC (else "cc"),
/// `flags`, -fPIC -shared. Part of the compiled-block cache key.
[[nodiscard]] std::string jit_compile_command(
    const std::string& flags = default_jit_flags());

/// JIT host: compiles a C translation unit with the system C compiler into
/// a shared object and loads one symbol — the run-time half of the
/// Devito-style code generation workflow. The temporary source is removed
/// on *every* path, success or failure, and the shared object right after
/// it is loaded (the mapping outlives the name), so a killed process
/// leaves no file behind.
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
  /// Compile `c_source` with jit_compile_command(extra_flags) and resolve
  /// `symbol_name`. Throws JitCompileError with the compiler diagnostics
  /// when the compile fails, PreconditionError when loading does.
  JitModule(const std::string& c_source, const std::string& symbol_name,
            const std::string& extra_flags = default_jit_flags());

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
};

/// The generated per-block update of one lowered kernel: emit_dsl_c, then
/// a JitModule from a mutex-guarded, process-wide cache keyed on the
/// emitted source plus jit_compile_command() — so one equation compiles
/// once per process and per compiler, however many propagators run it.
/// Cached modules stay loaded until the process exits, so fn() outlives
/// this object. dsl::DslPropagator builds one at construction, after its
/// statics gate (stable dt, no out-of-halo load) has run. A failed compile
/// throws JitCompileError and caches nothing.
class CompiledBlock {
 public:
  explicit CompiledBlock(const dsl::LoweredKernel& lowered);

  [[nodiscard]] dsl::BlockFn* fn() const { return fn_; }
  [[nodiscard]] const std::string& source_code() const { return source_; }

 private:
  std::string source_;
  dsl::BlockFn* fn_ = nullptr;
};

}  // namespace tempest::codegen
