#include "tempest/codegen/jit.hpp"

#include <dlfcn.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>

#include "tempest/resilience/fault.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/backoff.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/log.hpp"

namespace tempest::codegen {

namespace {

/// Unlinks a temp artifact on scope exit — the compile/dlopen/dlsym
/// pipeline has four distinct failure exits and every one of them must
/// clean up both the .c and the .so (they used to leak on failure).
class TempFileGuard {
 public:
  explicit TempFileGuard(std::string path) : path_(std::move(path)) {}
  ~TempFileGuard() { ::unlink(path_.c_str()); }
  TempFileGuard(const TempFileGuard&) = delete;
  TempFileGuard& operator=(const TempFileGuard&) = delete;

 private:
  std::string path_;
};

/// The system C compiler: $CC when set (how users point the JIT at icc/
/// clang or a wrapper), else "cc".
std::string compiler_command() {
  const char* cc = std::getenv("CC");
  return (cc != nullptr && *cc != '\0') ? cc : "cc";
}

// The library's ISA flags, passed in by the build (CMakeLists.txt).
#ifndef TEMPEST_JIT_ISA_FLAGS
#define TEMPEST_JIT_ISA_FLAGS ""
#endif

/// Compile deadline in milliseconds ($TEMPEST_JIT_TIMEOUT_MS, default 2
/// minutes): a wedged compiler must not hang the simulation forever.
int jit_timeout_ms() {
  const char* env = std::getenv("TEMPEST_JIT_TIMEOUT_MS");
  if (env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return 120000;
}

struct CommandResult {
  int status = -1;       ///< exit code; nonzero = failure
  std::string output;    ///< combined stdout+stderr
  bool timed_out = false;
};

/// Run a shell command with combined output capture and a hard deadline.
/// fork/exec instead of popen so the child can be killed (as its own
/// process group) when the deadline passes.
CommandResult run_command(const std::string& cmd, int timeout_ms) {
  if (resilience::fault::consume_jit_failure()) {
    return {1, "fault injection: simulated compiler failure", false};
  }

  int fds[2];
  if (::pipe(fds) != 0) return {-1, "pipe() failed", false};

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {-1, "fork() failed", false};
  }
  if (pid == 0) {
    ::setpgid(0, 0);  // own group, so the timeout can kill sh + compiler
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  ::close(fds[1]);
  CommandResult res;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::array<char, 4096> buf{};
  struct pollfd pfd {
    fds[0], POLLIN, 0
  };
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      res.timed_out = true;
      break;
    }
    const auto remain_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    const int pr =
        ::poll(&pfd, 1, static_cast<int>(std::min<long long>(remain_ms, 200)));
    if (pr > 0) {
      const ssize_t n = ::read(fds[0], buf.data(), buf.size());
      if (n > 0) {
        res.output.append(buf.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) break;  // EOF: every writer exited
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    if (pr < 0 && errno != EINTR) break;
  }
  ::close(fds[0]);

  int status = 0;
  if (res.timed_out) {
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    res.status = -1;
    res.output += "\ncompiler killed after exceeding the " +
                  std::to_string(timeout_ms) + " ms deadline";
    return res;
  }
  ::waitpid(pid, &status, 0);
  res.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

}  // namespace

const std::string& default_jit_flags() {
  static const std::string flags = [] {
    std::string f = "-O3 -fopenmp-simd -ffp-contract=off";
    const std::string isa = TEMPEST_JIT_ISA_FLAGS;
    if (!isa.empty()) f += " " + isa;
    return f;
  }();
  return flags;
}

std::string jit_compile_command(const std::string& flags) {
  return compiler_command() + " " + flags + " -fPIC -shared";
}

JitModule::JitModule(const std::string& c_source,
                     const std::string& symbol_name,
                     const std::string& extra_flags) {
  TEMPEST_TRACE_SPAN("jit.compile", "codegen");
  TEMPEST_OBS_TIME(JitCompileSeconds);
  TEMPEST_TRACE_COUNT(JitCompiles, 1);
  char c_path[] = "/tmp/tempest_jit_XXXXXX.c";
  const int fd = ::mkstemps(c_path, 2);
  TEMPEST_REQUIRE_MSG(fd >= 0, "cannot create temporary source file");
  TempFileGuard c_guard(c_path);
  {
    std::ofstream out(c_path);
    out << c_source;
  }
  ::close(fd);

  const std::string so_path = std::string(c_path, std::strlen(c_path) - 2) +
                              ".so";
  // Unlinked on every exit, success included: once dlopen has mapped the
  // object its name is no longer needed.
  const TempFileGuard so_guard(so_path);
  const std::string cmd = jit_compile_command(extra_flags) + " -o " +
                          so_path + " " + c_path;
  const int timeout_ms = jit_timeout_ms();

  // Retries absorb transient failures (OOM kill, tmpfs hiccup, a ccache
  // race); a deterministic diagnostic simply fails again, so the budget is
  // small by default. A timed-out compile is never retried — it would hang
  // the run for another full deadline.
  const util::BackoffPolicy policy = util::BackoffPolicy::from_env(
      "TEMPEST_JIT",
      util::BackoffPolicy{.max_attempts = 2, .base_ms = 50.0, .max_ms = 2000.0});
  CommandResult res;
  for (int attempt = 1;; ++attempt) {
    res = run_command(cmd, timeout_ms);
    if (res.status == 0) break;
    if (res.timed_out) {
      throw JitCompileError("generated code failed to compile (deadline "
                            "exceeded; not retried):\n" +
                            res.output);
    }
    if (attempt >= policy.max_attempts) {
      throw JitCompileError("generated code failed to compile after " +
                            std::to_string(attempt) + " attempt(s):\n" +
                            res.output);
    }
    const double delay = policy.delay_ms(attempt);
    util::warn("JIT compile failed (attempt " + std::to_string(attempt) +
               "/" + std::to_string(policy.max_attempts) + "), retrying in " +
               std::to_string(static_cast<long>(delay)) + " ms: " + cmd);
    util::sleep_ms(delay);
  }

  {
    TEMPEST_TRACE_SPAN("jit.load", "codegen");
    handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    TEMPEST_REQUIRE_MSG(handle_ != nullptr,
                        std::string("dlopen failed: ") + ::dlerror());
    sym_ = ::dlsym(handle_, symbol_name.c_str());
    if (sym_ == nullptr) {
      ::dlclose(handle_);
      handle_ = nullptr;
      TEMPEST_REQUIRE_MSG(false,
                          "symbol not found in generated module: " +
                              symbol_name);
    }
  }
}

JitModule::JitModule(JitModule&& other) noexcept
    : handle_(other.handle_), sym_(other.sym_) {
  other.handle_ = nullptr;
  other.sym_ = nullptr;
}

JitModule& JitModule::operator=(JitModule&& other) noexcept {
  if (this != &other) {
    this->~JitModule();
    new (this) JitModule(std::move(other));
  }
  return *this;
}

JitModule::~JitModule() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

namespace {

KernelSpec spec_of(const dsl::LoweredKernel& lowered) {
  return {.space_order = lowered.space_order, .kernel = lowered.name};
}

}  // namespace

CompiledBlock::CompiledBlock(const dsl::LoweredKernel& lowered)
    : source_(emit_dsl_c(lowered, spec_of(lowered))) {
  static std::mutex mu;
  static std::map<std::string, JitModule> cache;
  const std::string key = jit_compile_command() + "\n" + source_;
  // Compiling under the lock makes a second propagator of the same
  // equation wait for the first compile instead of repeating it.
  const std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, JitModule(source_, spec_of(lowered).symbol()))
             .first;
  }
  fn_ = it->second.as<dsl::BlockFn>();
}

}  // namespace tempest::codegen
