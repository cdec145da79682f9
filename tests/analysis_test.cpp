// tempest::analysis unit tests: access extraction, dependence graphs and
// the schedule-legality verifier, pinned against the lowering stages of the
// paper's Listings 1–6. The golden summaries here ARE the paper's Section
// II.A argument in machine-checkable form: the naive nest's off-the-grid
// accesses produce star dependence distances, the lowered nests' fused
// accesses produce distances bounded by the stencil radius.

#include <gtest/gtest.h>

#include <string>

#include "tempest/analysis/legality.hpp"
#include "tempest/dsl/operator.hpp"
#include "tempest/dsl/passes.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/sparse/survey.hpp"

namespace an = tempest::analysis;
namespace dsl = tempest::dsl;
namespace ph = tempest::physics;
namespace sp = tempest::sparse;

namespace {

/// The canonical acoustic nest at a lowering stage (sources + receivers).
tempest::dsl::ir::Node nest(int stage, int slope = 2) {
  dsl::ir::Node root =
      dsl::passes::build_timestepping("A_acoustic(t, x, y, z)", true, true);
  if (stage >= 1) dsl::passes::precompute_and_fuse(root);
  if (stage >= 2) dsl::passes::compress_iteration_space(root);
  if (stage >= 3) dsl::passes::time_tile(root, slope);
  return root;
}

an::AccessSummary acoustic4() {
  return ph::acoustic_access_summary(4);  // radius 2
}

bool has_code(const an::LegalityReport& r, const std::string& code) {
  for (const auto& d : r.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

dsl::Eq acoustic_eq(const dsl::TimeFunction& u) {
  const dsl::Expr eq = dsl::param("m") * u.dt2() +
                       dsl::param("damp") * u.dt() - u.laplace();
  return dsl::solve(eq, u.forward());
}

}  // namespace

// ---------------------------------------------------------------- access --

TEST(Access, Stage0GoldenListing1) {
  // Listing 1: the stencil is affine, both sparse operators indirect
  // through map(s, i) — star extents on every grid axis.
  const auto stmts = an::extract_accesses(nest(0), acoustic4());
  EXPECT_EQ(an::print_accesses(stmts),
            "S0 stencil affine-stencil (t x y z)"
            " W u[t+1,0,0,0]; R u[t+0,-2..2,-2..2,-2..2]; R u[t-1,0,0,0];\n"
            "S1 inject off-grid-sparse (t s i)\n"
            "S2 inject off-grid-sparse (t s i)"
            " W u[t+1,*,*,*]; R u[t+1,*,*,*];\n"
            "S3 interp off-grid-sparse (t r i)\n"
            "S4 interp off-grid-sparse (t r i)"
            " W rec[t+0,.]; R rec[t+0,.]; R u[t+1,*,*,*];\n");
}

TEST(Access, Stage2FusedInjectionIsGridAlignedInTiledDims) {
  // Listing 5: after precompute + compression the injection writes
  // u[t+1, x, y, zind] — affine zero offsets at (x, y), star only on the
  // never-tiled z axis.
  const auto stmts = an::extract_accesses(nest(2), acoustic4());
  bool found = false;
  for (const auto& s : stmts) {
    if (s.tag != "inject-fused") continue;
    for (const auto& a : s.accesses) {
      if (a.field != "u" || !a.is_write) continue;
      found = true;
      EXPECT_FALSE(a.dist_star_in("x"));
      EXPECT_FALSE(a.dist_star_in("y"));
      EXPECT_TRUE(a.dist_star_in("z"));
      EXPECT_EQ(a.time, 1);
      EXPECT_EQ(s.cls, an::AccessClass::MaskGuardedFused);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Access, PrologueIsOutsideTheTimeLoop) {
  const auto stmts = an::extract_accesses(nest(1), acoustic4());
  int prologue = 0;
  for (const auto& s : stmts) {
    if (s.cls == an::AccessClass::Precompute) {
      ++prologue;
      EXPECT_FALSE(s.under_time_loop);
    }
  }
  EXPECT_EQ(prologue, 4);  // Listings 2 + 3 (sources), receiver tables
}

TEST(Access, StencilExpansionFollowsTheDeclaredSummary) {
  // The elastic summary declares per-timestep reach 2r and first-order
  // time: one write of u[t+1], one ±2r read of u[t], no u[t-1].
  const auto stmts =
      an::extract_accesses(nest(0), ph::elastic_access_summary(4));
  ASSERT_FALSE(stmts.empty());
  const auto& st = stmts[0];
  ASSERT_EQ(st.tag, "stencil");
  ASSERT_EQ(st.accesses.size(), 2u);
  EXPECT_TRUE(st.accesses[0].is_write);
  EXPECT_EQ(st.accesses[0].time, 1);
  EXPECT_EQ(st.accesses[1].dx, an::Extent::range(-4, 4));
}

// ------------------------------------------------------------ dependence --

TEST(Dependence, Stage0GoldenDeps) {
  // The paper's illegal edges: the naive injection S2 feeds the stencil S0
  // at dt=1 and dt=2 with star distance ("could be anywhere"), plus the
  // same-timestep write/write and read/write pairs.
  const auto g = an::build_dependences(nest(0), acoustic4());
  std::string deps;
  for (const auto& d : g.deps) deps += d.str() + "\n";
  EXPECT_EQ(deps,
            "flow S0->S0 u dt=1 (-2..2,-2..2,-2..2)\n"
            "flow S0->S0 u dt=2 (0,0,0)\n"
            "output S0->S2 u dt=0 (*,*,*)\n"
            "flow S0->S2 u dt=0 (*,*,*)\n"
            "flow S2->S0 u dt=1 (*,*,*)\n"
            "flow S2->S0 u dt=2 (*,*,*)\n"
            "flow S0->S4 u dt=0 (*,*,*)\n"
            "flow S2->S4 u dt=0 (*,*,*)\n");
}

TEST(Dependence, Stage1GoldenDeps) {
  // Listing 4: the fused injection's distances collapse to the stencil
  // radius — exactly what makes the skew slope sufficient again.
  const auto g = an::build_dependences(nest(1), acoustic4());
  std::string deps;
  for (const auto& d : g.deps) deps += d.str() + "\n";
  EXPECT_EQ(deps,
            "flow S4->S4 u dt=1 (-2..2,-2..2,-2..2)\n"
            "flow S4->S4 u dt=2 (0,0,0)\n"
            "output S4->S5 u dt=0 (0,0,0)\n"
            "flow S4->S5 u dt=0 (0,0,0)\n"
            "flow S5->S4 u dt=1 (-2..2,-2..2,-2..2)\n"
            "flow S5->S4 u dt=2 (0,0,0)\n"
            "flow S4->S6 u dt=0 (0,0,0)\n"
            "flow S5->S6 u dt=0 (0,0,0)\n");
}

TEST(Dependence, Stage2GoldenDeps) {
  // Listing 5: compression moves the z indirection into Sp_SID/Sp_RID —
  // star distance confined to z, the dimension no schedule tiles.
  const auto g = an::build_dependences(nest(2), acoustic4());
  std::string deps;
  for (const auto& d : g.deps) deps += d.str() + "\n";
  EXPECT_EQ(deps,
            "flow S4->S4 u dt=1 (-2..2,-2..2,-2..2)\n"
            "flow S4->S4 u dt=2 (0,0,0)\n"
            "output S4->S6 u dt=0 (0,0,*)\n"
            "flow S4->S6 u dt=0 (0,0,*)\n"
            "flow S6->S4 u dt=1 (-2..2,-2..2,*)\n"
            "flow S6->S4 u dt=2 (0,0,*)\n"
            "flow S4->S8 u dt=0 (0,0,*)\n"
            "flow S6->S8 u dt=0 (0,0,*)\n"
            "anti S7->S8 Sp_RID dt=0 (0,0,0)\n");
}

TEST(Dependence, Stage3TiledNestKeepsTheStage2Graph) {
  // Listing 6 only re-nests the loops (tt/xs/ys around a shortened time
  // loop); the statements and their dependences are those of stage 2.
  const auto g2 = an::build_dependences(nest(2), acoustic4());
  const auto g3 = an::build_dependences(nest(3), acoustic4());
  ASSERT_EQ(g2.deps.size(), g3.deps.size());
  for (std::size_t i = 0; i < g2.deps.size(); ++i) {
    EXPECT_EQ(g2.deps[i].str(), g3.deps[i].str());
  }
  // ... under the extra tile loops.
  EXPECT_TRUE(g3.stmts[4].inside_loop("tt"));
  EXPECT_TRUE(g3.stmts[4].inside_loop("xs"));
}

// -------------------------------------------------------------- legality --

TEST(Legality, BarrierSchedulesAlwaysLegal) {
  for (int stage = 0; stage <= 2; ++stage) {
    EXPECT_TRUE(an::verify_nest(nest(stage), acoustic4(),
                                an::ScheduleDescriptor::reference())
                    .legal());
    EXPECT_TRUE(an::verify_nest(nest(stage), acoustic4(),
                                an::ScheduleDescriptor::space_blocked())
                    .legal());
  }
}

TEST(Legality, Stage0SparseRejectedUnderEveryTemporalBlocking) {
  const an::ScheduleDescriptor tiled[] = {
      an::ScheduleDescriptor::wavefront(2, 8),
      an::ScheduleDescriptor::fused(2),
      an::ScheduleDescriptor::diamond(2, 8),
  };
  for (const auto& sched : tiled) {
    const auto r = an::verify_nest(nest(0), acoustic4(), sched);
    EXPECT_FALSE(r.legal()) << sched.str();
    EXPECT_TRUE(has_code(r, "not-tileable")) << sched.str();
  }
}

TEST(Legality, Stage0RejectionNamesThePairAndTheDistance) {
  const auto r = an::verify_nest(nest(0), acoustic4(),
                                 an::ScheduleDescriptor::wavefront(2, 8));
  // The load-bearing edge of the paper's argument: naive injection S2 ->
  // stencil S0, flow on u, carried one timestep, unbounded distance.
  bool found = false;
  for (const auto& d : r.diagnostics) {
    if (d.code == "unbounded-distance" && d.src == 2 && d.dst == 0 &&
        d.kind == an::DepKind::Flow && d.field == "u" &&
        d.message.find("dt=1") != std::string::npos) {
      found = true;
      EXPECT_NE(d.message.find("statically unknowable"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << r.str();
}

TEST(Legality, LoweredStagesLegalUnderEveryTemporalBlocking) {
  const an::ScheduleDescriptor tiled[] = {
      an::ScheduleDescriptor::wavefront(2, 8),
      an::ScheduleDescriptor::fused(2),
      an::ScheduleDescriptor::diamond(2, 8),
  };
  for (int stage = 1; stage <= 2; ++stage) {
    for (const auto& sched : tiled) {
      const auto r = an::verify_nest(nest(stage), acoustic4(), sched);
      EXPECT_TRUE(r.legal()) << "stage " << stage << ": " << r.str();
    }
  }
}

TEST(Legality, TooShallowSlopeIsCaughtWithTheOffendingDistance) {
  // Radius-2 stencil under a slope-1 wavefront: the verifier must name the
  // statement pair and the distance that outruns the skew.
  const auto r = an::verify_nest(nest(2), acoustic4(),
                                 an::ScheduleDescriptor::wavefront(1, 8));
  EXPECT_FALSE(r.legal());
  EXPECT_EQ(r.errors(), 4);  // S4->S4 and S6->S4 in both x and y
  for (const auto& d : r.diagnostics) {
    EXPECT_EQ(d.code, "slope-exceeded");
    EXPECT_EQ(d.dst, 4);  // every violation feeds the stencil
    EXPECT_NE(d.message.find("-2..2"), std::string::npos);
  }
}

TEST(Legality, SlopeEqualToRadiusIsExactlySufficient) {
  EXPECT_TRUE(an::verify_nest(nest(2), acoustic4(),
                              an::ScheduleDescriptor::wavefront(2, 8))
                  .legal());
  EXPECT_FALSE(an::verify_nest(nest(2), acoustic4(),
                               an::ScheduleDescriptor::wavefront(1, 8))
                   .legal());
}

TEST(Legality, SourceFreeNaiveNestIsTileable) {
  // Without off-the-grid operators the Listing-1 nest is an ordinary
  // stencil: temporal blocking is legal as-is (the paper's classical case).
  dsl::ir::Node root =
      dsl::passes::build_timestepping("A_acoustic(t, x, y, z)", false, false);
  EXPECT_TRUE(an::verify_nest(root, acoustic4(),
                              an::ScheduleDescriptor::wavefront(2, 8))
                  .legal());
}

TEST(Legality, VerifyCanonicalMatchesHandBuiltNests) {
  const auto a = an::verify_canonical(acoustic4(), 2, true, true,
                                      an::ScheduleDescriptor::diamond(2, 8));
  const auto b = an::verify_nest(nest(2), acoustic4(),
                                 an::ScheduleDescriptor::diamond(2, 8));
  EXPECT_EQ(a.legal(), b.legal());
  EXPECT_EQ(a.dependences_checked, b.dependences_checked);
}

TEST(Legality, RequireLegalThrowsWithTheFullReport) {
  const auto r = an::verify_nest(nest(0), acoustic4(),
                                 an::ScheduleDescriptor::wavefront(2, 8));
  try {
    an::require_legal(r);
    FAIL() << "expected ScheduleLegalityError";
  } catch (const an::ScheduleLegalityError& e) {
    EXPECT_FALSE(e.report().legal());
    EXPECT_GT(e.report().errors(), 0);
    EXPECT_NE(std::string(e.what()).find("not-tileable"), std::string::npos);
  }
}

// ------------------------------------------------------- pass validation --

TEST(Passes, TimeTileRejectsNonPositiveSlope) {
  for (const int slope : {0, -1, -7}) {
    dsl::ir::Node root = nest(2);
    EXPECT_THROW(dsl::passes::time_tile(root, slope),
                 tempest::util::InvalidScheduleError)
        << "slope " << slope;
  }
  dsl::ir::Node root = nest(2);
  EXPECT_NO_THROW(dsl::passes::time_tile(root, 1));
}

// ------------------------------------------------------------ the gates --

TEST(Gates, OperatorBuildProvesFig4bAndExposesTheReports) {
  dsl::Grid g{{24, 20, 16}, 10.0};
  dsl::TimeFunction u("u", g, 4, 2);
  dsl::SparseTimeFunction s("src", sp::single_center_source({24, 20, 16}), 16);
  dsl::SparseTimeFunction d("rec", sp::receiver_line({24, 20, 16}, 4), 16);
  dsl::OperatorOptions opts;
  opts.schedule = ph::Schedule::Wavefront;
  // Construction runs the theorem: stage 0 rejected, stages 1-2 accepted.
  dsl::Operator op({acoustic_eq(u)}, {s.inject(u, dsl::param("dt2_over_m"))},
                   {d.interpolate(u)}, opts);
  EXPECT_FALSE(op.verify_stage(0).legal());
  EXPECT_TRUE(op.verify_stage(1).legal());
  EXPECT_TRUE(op.verify_stage(2).legal());
  // And at a concrete space order (radius 4), same verdicts.
  EXPECT_FALSE(op.verify_stage(0, 8).legal());
  EXPECT_TRUE(op.verify_stage(2, 8).legal());
  EXPECT_EQ(op.schedule_descriptor(8).slope, 4);
}

TEST(Gates, OperatorDescriptorFollowsTheSchedule) {
  dsl::Grid g{{24, 20, 16}, 10.0};
  dsl::TimeFunction u("u", g, 4, 2);
  dsl::OperatorOptions opts;
  opts.schedule = ph::Schedule::Diamond;
  dsl::Operator op({acoustic_eq(u)}, {}, {}, opts);
  EXPECT_EQ(op.schedule_descriptor().kind, an::SchedKind::Diamond);
  EXPECT_TRUE(op.verify_stage(2).legal());
  EXPECT_EQ(op.access_summary(6).radius, 3);
}

TEST(Gates, EngineVerificationCoversEveryKernelSummary) {
  // What core::engine::ScheduleExecutor asserts before a time-tiled run:
  // stage-2 nest, slope = substeps * geometric radius. Must hold for every
  // physics kernel at every even space order the kernels support.
  const int so = 4;
  const an::AccessSummary summaries[] = {
      ph::acoustic_access_summary(so), ph::tti_access_summary(so),
      ph::vti_access_summary(so), ph::elastic_access_summary(so)};
  for (const auto& k : summaries) {
    for (const bool rec : {false, true}) {
      const auto w = an::verify_canonical(
          k, 2, true, rec, an::ScheduleDescriptor::wavefront(k.radius, 8));
      EXPECT_TRUE(w.legal()) << k.kernel << ": " << w.str();
      const auto d = an::verify_canonical(
          k, 2, true, rec, an::ScheduleDescriptor::diamond(k.radius, 8));
      EXPECT_TRUE(d.legal()) << k.kernel << ": " << d.str();
    }
  }
}
