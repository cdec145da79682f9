// Integration tests for the crash-tolerant survey runtime.
//
// The mid-shot kill-and-resume contract every propagator family meets is
// tested once, through the physics::Propagator base, in propagator_test;
// the process-level chaos harness proves it across real SIGKILLs. The
// survey-level tests here exercise the degradation ladder (the JIT rung
// runs its compiled block bit-identically to AOT; an injected persistent
// JIT fault completes on the AOT rung, reported as degraded — never
// failed), journal re-entry after a dead process, and watchdog-driven
// quarantine when every rung is too slow.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "tempest/jobs/chaos.hpp"
#include "tempest/jobs/queue.hpp"
#include "tempest/jobs/survey.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/trace/trace.hpp"

namespace jb = tempest::jobs;
namespace ph = tempest::physics;
namespace rs = tempest::resilience;
namespace tr = tempest::trace;

namespace {

/// Fault plan hygiene: no injected fault may leak into the next test.
class SurveyRuntime : public ::testing::Test {
 protected:
  void SetUp() override { rs::fault::reset(); }
  void TearDown() override { rs::fault::reset(); }
};

class TempDir {
 public:
  TempDir() {
    path_ = "/tmp/tempest_survey_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++);
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempDir::counter_ = 0;

}  // namespace

// --- Acceptance: an injected persistent JIT fault completes the shot via
// the degradation ladder and is reported as degraded, not failed. ---

TEST_F(SurveyRuntime, PersistentJitFaultDegradesShotsNotSurvey) {
  TempDir dir;
  rs::fault::plan().fail_jit_compiles = 1000;  // a broken toolchain
  ::setenv("TEMPEST_JIT_RETRIES", "1", 1);     // keep the test fast

  jb::SurveySpec spec;
  spec.n = 16;
  spec.nt = 12;
  spec.n_shots = 2;
  spec.space_order = 4;
  spec.physics = "acoustic";
  spec.schedule = ph::Schedule::Wavefront;
  spec.use_jit = true;  // rung 0 = JIT wavefront, rung 1 = AOT wavefront
  spec.jobs_dir = dir.path();
  spec.ckpt_every = 4;
  spec.health_every = 0;
  spec.retry.max_attempts = 2;
  spec.retry.base_ms = 0.1;

  const jb::SurveyReport report = jb::run_survey(spec);
  ::unsetenv("TEMPEST_JIT_RETRIES");

  EXPECT_EQ(report.done, 2);
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(report.degraded, 2);  // every shot fell back to the AOT rung
  for (const jb::ShotReport& s : report.shots) {
    EXPECT_EQ(s.state, "done");
    EXPECT_TRUE(s.degraded);
    EXPECT_GE(s.level, 1);  // below the JIT rung
    EXPECT_GE(s.attempts, spec.retry.max_attempts);  // transients retried
    EXPECT_TRUE(std::filesystem::exists(jb::shot_gather_path(spec, s.shot)));
  }
}

// --- The JIT rung runs the code it compiled: with no fault, every shot
// finishes on the +jit rung and its gather is byte-identical to the AOT
// survey's (the compiled block is bitwise equal to the AOT kernel). ---

TEST_F(SurveyRuntime, JitRungRunsTheCompiledBlock) {
  jb::SurveySpec spec;
  spec.n = 16;
  spec.nt = 12;
  spec.n_shots = 2;
  spec.space_order = 4;
  spec.physics = "acoustic";
  spec.schedule = ph::Schedule::Wavefront;
  spec.health_every = 0;

  TempDir aot;
  spec.jobs_dir = aot.path();
  const jb::SurveyReport ref = jb::run_survey(spec);
  ASSERT_EQ(ref.done, 2);

  TempDir jit;
  spec.jobs_dir = jit.path();
  spec.use_jit = true;  // rung 0 = JIT wavefront
  tr::reset();
  tr::set_enabled(true);
  const jb::SurveyReport report = jb::run_survey(spec);
  const long long compiles = tr::value(tr::Counter::JitCompiles);
  tr::set_enabled(false);
  tr::reset();
#if !defined(TEMPEST_TRACE_DISABLED)
  EXPECT_GE(compiles, 1);
#else
  (void)compiles;
#endif

  EXPECT_EQ(report.done, 2);
  EXPECT_EQ(report.degraded, 0);
  for (const jb::ShotReport& s : report.shots) {
    EXPECT_EQ(s.state, "done");
    EXPECT_EQ(s.level, 0);
    EXPECT_EQ(s.level_name, "wavefront+jit");
    EXPECT_FALSE(s.degraded);
    spec.jobs_dir = aot.path();
    const std::string a = jb::shot_gather_path(spec, s.shot);
    spec.jobs_dir = jit.path();
    const std::string b = jb::shot_gather_path(spec, s.shot);
    EXPECT_TRUE(jb::files_identical(a, b)) << "shot " << s.shot;
  }

  // The converse: a compiler wrapper that zeroes the generated update
  // (every cell becomes 0 * update) must change every gather — had the
  // rung compiled and then propagated with the AOT kernel, the gathers
  // would still match.
  TempDir sabotaged;
  std::filesystem::create_directories(sabotaged.path());
  const char* real_cc = std::getenv("CC");
  const std::string cc_wrapper = sabotaged.path() + "/cc.sh";
  {
    std::ofstream sh(cc_wrapper);
    sh << "#!/bin/sh\nfor a; do src=$a; done\n"
       << "sed -i 's/unr\\[z\\] = /unr[z] = 0.0f * /' \"$src\"\n"
       << "exec " << (real_cc != nullptr && *real_cc != '\0' ? real_cc : "cc")
       << " \"$@\"\n";
  }
  std::filesystem::permissions(cc_wrapper,
                               std::filesystem::perms::owner_all);
  const std::string saved_cc = real_cc != nullptr ? real_cc : "";
  ::setenv("CC", cc_wrapper.c_str(), 1);
  spec.jobs_dir = sabotaged.path();
  const jb::SurveyReport broken = jb::run_survey(spec);
  if (saved_cc.empty()) {
    ::unsetenv("CC");
  } else {
    ::setenv("CC", saved_cc.c_str(), 1);
  }
  EXPECT_EQ(broken.done, 2);
  for (int k = 0; k < spec.n_shots; ++k) {
    spec.jobs_dir = aot.path();
    const std::string a = jb::shot_gather_path(spec, k);
    spec.jobs_dir = sabotaged.path();
    const std::string b = jb::shot_gather_path(spec, k);
    EXPECT_FALSE(jb::files_identical(a, b)) << "shot " << k;
  }
}

// --- Journal re-entry: a journal left by a dead process is replayed, the
// interrupted shot re-runs, and the gathers match a clean run bitwise. ---

TEST_F(SurveyRuntime, RecoveredJournalReentersAndMatchesCleanRun) {
  jb::SurveySpec spec;
  spec.n = 16;
  spec.nt = 12;
  spec.n_shots = 2;
  spec.space_order = 4;
  spec.schedule = ph::Schedule::SpaceBlocked;
  spec.ckpt_every = 4;
  spec.health_every = 0;

  // The clean run: ground truth.
  TempDir clean;
  spec.jobs_dir = clean.path();
  const jb::SurveyReport ref = jb::run_survey(spec);
  ASSERT_EQ(ref.done, 2);
  EXPECT_FALSE(ref.recovered);

  // Fabricate a dead process: a journal whose shot 0 is left Running.
  TempDir dirty;
  std::filesystem::create_directories(dirty.path());
  {
    jb::JobQueue q(dirty.path() + "/journal.tpj", jb::survey_fingerprint(spec),
                   spec.n_shots);
    q.mark_started(0, 1, 0);
  }

  spec.jobs_dir = dirty.path();
  const jb::SurveyReport resumed = jb::run_survey(spec);
  EXPECT_TRUE(resumed.recovered);
  EXPECT_EQ(resumed.done, 2);

  for (int s = 0; s < spec.n_shots; ++s) {
    spec.jobs_dir = clean.path();
    const std::string a = jb::shot_gather_path(spec, s);
    spec.jobs_dir = dirty.path();
    const std::string b = jb::shot_gather_path(spec, s);
    EXPECT_TRUE(jb::files_identical(a, b)) << "shot " << s;
  }
}

// --- Watchdog: when every rung misses the per-step deadline the shot is
// quarantined with diagnostics — the survey completes, reporting it. ---

TEST_F(SurveyRuntime, ImpossibleWatchdogDeadlineQuarantines) {
  TempDir dir;
  jb::SurveySpec spec;
  spec.n = 14;
  spec.nt = 8;
  spec.n_shots = 1;
  spec.space_order = 4;
  // Barrier schedule: the watchdog is active on every rung of its ladder
  // (space-blocked, then reference).
  spec.schedule = ph::Schedule::SpaceBlocked;
  spec.jobs_dir = dir.path();
  spec.ckpt_every = 4;
  spec.health_every = 0;
  spec.watchdog_ms = 1e-7;  // no real step can beat this deadline
  spec.retry.base_ms = 0.1;

  const jb::SurveyReport report = jb::run_survey(spec);
  EXPECT_EQ(report.done, 0);
  EXPECT_EQ(report.quarantined, 1);
  ASSERT_EQ(report.shots.size(), 1u);
  EXPECT_EQ(report.shots[0].state, "quarantined");
  EXPECT_NE(report.shots[0].detail.find("ladder exhausted"),
            std::string::npos)
      << report.shots[0].detail;
  // A quarantined survey keeps its journal for the rerun to skip Done
  // shots and preserve the diagnostics.
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/journal.tpj"));
}
