// Exhaustive schedule-legality sweep: every physics kernel's declared
// access summary x every schedule family x sparse operators on/off x the
// first three lowering stages, each verified by tempest::analysis and
// printed as one table row. DSL-authored kernels ride the same matrix:
// their summaries come from dsl::lower_kernel — the structural access
// extraction, not a hand-maintained table — so a lowering bug that
// mis-declares a footprint shows up here as a contradicted verdict.
//
// Each row additionally carries the analysis::statics verdicts: the
// tile-interference race proof for the row's schedule geometry (every
// kernel), and the combined interval/CFL/lint verdict for the DSL-lowered
// kernels (the hand-written kernels have no IR tree to interpret; their
// rows print "-"). A conflict or a statics error is a contradicted row.
//
// The exit code is the paper's Section II.A claim, machine-checked: the
// naive stage-0 nest with off-the-grid sparse operators must be REJECTED
// under every temporally blocked family, and every precomputed/fused nest
// (stages 1 and 2) must be ACCEPTED — for every kernel. Any other verdict
// is a bug in the analyzer or the lowering, and the tool returns nonzero
// (which is how CI consumes it; see scripts/check.sh --analyze).
//
// --seeded runs fixtures that are wrong *by construction* instead — a dt
// beyond the stability bound, a load beyond the declared halo, a wavefront
// band whose skew undershoots the stencil radius — and returns nonzero iff
// any of them is NOT rejected with the expected diagnostic code: the proof
// that the gates the sweep finds silent on good kernels do reject.
//
// Usage: schedule_verifier [--csv] [--so=N[,N...]] [--seeded]
//
// A comma list sweeps several space orders in ONE invocation — one table,
// one header row — so CSV consumers concatenating per-order sweeps no
// longer see interleaved headers.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tempest/analysis/legality.hpp"
#include "tempest/analysis/statics/interference.hpp"
#include "tempest/analysis/statics/verify.hpp"
#include "tempest/dsl/expr.hpp"
#include "tempest/dsl/ir.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/util/table.hpp"

namespace {

namespace statics = tempest::analysis::statics;
namespace dsl = tempest::dsl;
using tempest::analysis::AccessSummary;
using tempest::analysis::Diagnostic;
using tempest::analysis::LegalityReport;
using tempest::analysis::ScheduleDescriptor;

/// One kernel under sweep: the declared access summary, plus the lowered
/// IR tree when the kernel came through the DSL frontend (enables the
/// statics passes that need an expression tree).
struct Entry {
  AccessSummary summary;
  std::optional<dsl::LoweredKernel> lowered;
};

/// The schedule families under test for a kernel whose per-timestep
/// dependence reach is `slope` (the declared summary radius).
std::vector<ScheduleDescriptor> schedules(int slope) {
  return {ScheduleDescriptor::reference(), ScheduleDescriptor::space_blocked(),
          ScheduleDescriptor::wavefront(slope), ScheduleDescriptor::fused(slope),
          ScheduleDescriptor::diamond(slope)};
}

/// The damped acoustic equation with damping coefficient `damp_name`,
/// lowered at `space_order` (h = 10 m) as kernel `kernel`.
dsl::LoweredKernel lower_dsl(const char* damp_name, const char* kernel,
                             int space_order, double dt) {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, space_order, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param(damp_name) * u.dt() -
                                    u.laplace(),
                                u.forward());
  return dsl::lower_kernel(eq, space_order, /*spacing=*/10.0, dt, kernel);
}

/// DSL-authored kernels: lowered via the typed-IR frontend at the swept
/// space order, their summaries produced by the structural access
/// extraction rather than the physics layer's hand-maintained tables.
/// `dsl-acoustic` mirrors the hand-written acoustic stencil; `dsl-sponge`
/// is the absorbing-boundary variant whose damping coefficient is a bound
/// grid (operator class Generic, not IsoAcoustic). dt = 0.5 ms at h = 10 m
/// sits inside the von Neumann bound for every swept order under the
/// conventional velocity interval, so the stability column proves "ok".
std::vector<Entry> dsl_kernels(int space_order) {
  std::vector<Entry> out;
  for (const auto& [damp, name] : {std::pair{"damp", "dsl-acoustic"},
                                   std::pair{"eta", "dsl-sponge"}}) {
    dsl::LoweredKernel lk = lower_dsl(damp, name, space_order, 0.5);
    out.push_back({lk.summary(), std::move(lk)});
  }
  return out;
}

/// The band plan the interference column proves for a schedule: the
/// executors' default tile shape on a 192^2 domain, two bands deep.
tempest::core::BandPlan sweep_plan(const ScheduleDescriptor& sched) {
  return statics::plan_for(sched, {192, 192, 192}, tempest::core::TileSpec{},
                           0, 2 * sched.tile_t);
}

/// First error code of a report, or "-" when legal.
std::string first_error(const LegalityReport& r) {
  for (const auto& d : r.diagnostics) {
    if (d.severity == Diagnostic::Severity::Error) {
      return d.code;
    }
  }
  return "-";
}

/// Statics verdict cell for a DSL-lowered kernel: "ok" or the first error
/// code of the combined interval/stability/lint report.
/// The lint runs against the halo the kernel declares.
std::string statics_cell(const dsl::LoweredKernel& lowered) {
  statics::StaticsOptions opts;
  opts.bounds = statics::conventional_bounds(lowered.field);
  opts.resolvable = {"m", "damp", "vp", "eta"};
  opts.declared_radius = lowered.radius();
  const statics::StaticsReport report = statics::verify_statics(lowered, opts);
  if (report.ok()) return "ok";
  for (const auto& d : report.diagnostics()) {
    if (d.severity == Diagnostic::Severity::Error) return d.code;
  }
  return "error";
}

/// Seeded mode: fixtures wrong by construction; each must be rejected with
/// a diagnostic carrying the expected code. Returns the number of fixtures
/// that slipped through.
int run_seeded() {
  int missed = 0;
  auto expect = [&](const char* fixture, const std::vector<Diagnostic>& ds,
                    const char* code) {
    for (const auto& d : ds) {
      if (d.severity == Diagnostic::Severity::Error && d.code == code) {
        std::cout << "seeded[" << fixture << "]: rejected as expected\n  "
                  << d.str() << "\n";
        return;
      }
    }
    ++missed;
    std::cerr << "seeded[" << fixture << "]: NOT rejected (expected error '"
              << code << "')\n";
    for (const auto& d : ds) std::cerr << "  " << d.str() << "\n";
  };

  // 1. A dt far beyond the von Neumann bound (~1.1 ms at so=4, h=10,
  //    vp_max=4.5): the stability pass must name the bound it violates.
  {
    const dsl::LoweredKernel lk =
        lower_dsl("damp", "seeded-unstable", 4, /*dt=*/3.0);
    statics::StaticsOptions opts;
    opts.bounds = statics::conventional_bounds(lk.field);
    opts.resolvable = {"m", "damp", "vp"};
    expect("unstable-dt", statics::verify_statics(lk, opts).diagnostics(),
           "unstable-dt");
  }

  // 2. A lowered tree corrupted with a load beyond the declared halo (and
  //    beyond its own declared access hulls): the lint must name the
  //    offending offset on both counts.
  {
    dsl::LoweredKernel lk = lower_dsl("damp", "seeded-out-of-halo", 4, 0.5);
    lk.update = dsl::ir::bin(
        '+', lk.update, dsl::ir::load(lk.field, 0, lk.radius() + 3, 0, 0));
    statics::LintOptions lopts;
    lopts.declared_radius = lk.radius();
    const statics::LintReport lint = statics::lint_kernel(lk, lopts);
    expect("out-of-halo-read", lint.diagnostics, "out-of-halo-read");
    expect("footprint-mismatch", lint.diagnostics, "footprint-mismatch");
  }

  // 3. A wavefront band whose skew slope (1) undershoots the stencil
  //    radius (2): adjacent staircase-unordered tiles overlap, and the
  //    prover must name the interfering tile pair.
  {
    statics::Footprint fp;
    fp.radius = 2;
    const statics::InterferenceReport iref = statics::prove_race_free(
        sweep_plan(ScheduleDescriptor::wavefront(/*slope=*/1, /*tile_t=*/8)),
        fp);
    expect("tile-interference", iref.diagnostics, "tile-interference");
  }

  if (missed > 0) {
    std::cerr << "schedule_verifier --seeded: " << missed
              << " seeded fixture(s) were NOT rejected\n";
    return 1;
  }
  std::cout << "schedule_verifier --seeded: every seeded fixture rejected "
               "with the expected diagnostic\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool seeded = false;
  std::vector<int> orders;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--seeded") == 0) {
      seeded = true;
    } else if (std::strncmp(argv[i], "--so=", 5) == 0) {
      // Comma list: "--so=4,8" sweeps both orders in one table.
      for (const char* p = argv[i] + 5; *p != '\0';) {
        orders.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      std::cerr << "usage: schedule_verifier [--csv] [--so=N[,N...]] "
                   "[--seeded]\n";
      return 2;
    }
  }
  if (seeded) return run_seeded();
  if (orders.empty()) orders.push_back(4);
  for (const int so : orders) {
    if (so < 2 || so % 2 != 0) {
      std::cerr << "schedule_verifier: --so must be positive even orders\n";
      return 2;
    }
  }

  tempest::util::Table table({"kernel", "so", "stage", "schedule", "sparse",
                              "verdict", "errors", "first", "statics",
                              "interference"});
  int mismatches = 0;

  for (const int so : orders) {
    std::vector<Entry> kernels = {
        {tempest::physics::acoustic_access_summary(so), std::nullopt},
        {tempest::physics::tti_access_summary(so), std::nullopt},
        {tempest::physics::vti_access_summary(so), std::nullopt},
        {tempest::physics::elastic_access_summary(so), std::nullopt},
    };
    for (Entry& e : dsl_kernels(so)) kernels.push_back(std::move(e));

    for (const Entry& k : kernels) {
      const std::string statics_verdict =
          k.lowered ? statics_cell(*k.lowered) : "-";
      if (k.lowered && statics_verdict != "ok") ++mismatches;
      for (const bool sparse : {false, true}) {
        for (int stage = 0; stage <= 2; ++stage) {
          for (const ScheduleDescriptor& sched : schedules(k.summary.radius)) {
            const LegalityReport report = tempest::analysis::verify_canonical(
                k.summary, stage, /*sources=*/sparse, /*receivers=*/sparse,
                sched);
            // Section II.A: only the naive nest's off-the-grid operators are
            // incompatible with temporal blocking; everything else is legal.
            const bool expect_legal =
                !(sched.time_tiled() && sparse && stage == 0);
            bool ok = report.legal() == expect_legal;

            // The statics race proof for this row's band plan: every
            // schedule the legality layer admits must also be
            // interference-free.
            const statics::InterferenceReport iref = statics::prove_race_free(
                sweep_plan(sched), statics::Footprint::from_summary(
                                       k.summary, /*receivers=*/sparse));
            if (!iref.race_free()) ok = false;
            if (!ok) ++mismatches;

            table.add_row(
                {k.summary.kernel, std::to_string(so), std::to_string(stage),
                 sched.str(), sparse ? "on" : "off",
                 report.legal() ? "legal" : "ILLEGAL",
                 std::to_string(report.errors()),
                 ok ? first_error(report)
                    : first_error(report) + "  <-- UNEXPECTED",
                 statics_verdict,
                 iref.race_free()
                     ? "race-free"
                     : "CONFLICT(" + std::to_string(iref.conflicts) + ")"});
          }
        }
      }
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print_ascii(std::cout);
  }

  if (mismatches > 0) {
    std::cerr << "schedule_verifier: " << mismatches
              << " verdict(s) contradict the paper's legality theorem\n";
    return 1;
  }
  std::cout << "schedule_verifier: all " << table.rows()
            << " verdicts match the paper's legality theorem (stage-0 sparse "
               "rejected under temporal blocking; lowered nests accepted; "
               "every admitted schedule proven race-free)\n";
  return 0;
}
