#pragma once

namespace tempest::resilience::fault {

/// Deterministic fault-injection hooks.
///
/// The resilience layer's recovery paths (NaN detection, checkpoint
/// atomicity, JIT retry) only matter when something goes wrong — and the
/// conditions that go wrong in production (CFL blow-up after hours, a kill
/// -9 mid-write, a compiler OOM) cannot be provoked reliably in a unit
/// test. These hooks let tests arm a specific fault at a specific point;
/// production code polls them at the instrumented sites. Every counter is
/// one relaxed int read when disarmed, so the hooks stay compiled in.
///
/// The plan is process-global and not thread-safe to *arm*; arm it before
/// starting the run under test and reset() afterwards (tests within one
/// binary run sequentially).
struct Plan {
  /// Overwrite one interior wavefield value with a quiet NaN the first time
  /// the propagator completes this timestep (-1 = disarmed). Models a
  /// CFL-violating update poisoning the field mid-run.
  int poison_wavefield_at_step = -1;

  /// Fail the next N JIT compiler invocations with a nonzero exit status
  /// before the real compiler runs. N == 1 models a transient failure that
  /// a retry absorbs; a large N models a persistently broken toolchain.
  int fail_jit_compiles = 0;

  /// Abort the next N checkpoint writes after the temp file is partially
  /// written but *before* the atomic rename — the torn-write window a kill
  /// during save() would hit. The previous checkpoint must survive.
  int fail_checkpoint_writes = 0;

  /// Die with an un-catchable SIGKILL when the process-global progress
  /// counter (one tick per completed barrier timestep or temporal-blocking
  /// band — see note_progress()) reaches this value (-1 = disarmed). The
  /// chaos harness arms it to kill a survey at a fault-plan-chosen point in
  /// the computation: no destructors, no atexit, no flushes — exactly what
  /// `kill -9` leaves behind.
  int kill_after_progress = -1;
};

[[nodiscard]] Plan& plan();

/// Disarm everything (call from test teardown).
void reset();

/// Polled by the propagator after each completed barrier timestep.
/// Consumes the armed fault: returns true exactly once.
[[nodiscard]] bool consume_wavefield_poison(int step);

/// Polled by the JIT before each compiler invocation.
[[nodiscard]] bool consume_jit_failure();

/// Polled by the Checkpointer mid-write.
[[nodiscard]] bool consume_checkpoint_failure();

/// Tick the process-global progress counter (called by the engine after
/// every completed barrier timestep and at every temporal-blocking band
/// boundary) and raise SIGKILL when the armed kill point is reached. One
/// relaxed atomic increment; disarmed it costs one int compare.
void note_progress();

/// Progress ticks since process start — the chaos harness reads this from
/// an uninterrupted run to size its kill plan.
[[nodiscard]] long progress_count();

/// Arm kill_after_progress from $TEMPEST_CHAOS_KILL_AT when set (and the
/// plan is not already armed programmatically). Lets the chaos harness
/// reach into a child process it spawned without a bespoke CLI flag.
void arm_kill_from_env();

}  // namespace tempest::resilience::fault
