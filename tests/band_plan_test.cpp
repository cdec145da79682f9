// BandPlan geometry and execution: every schedule family's plan is a legal
// op order (validate_schedule), runs bit-identically to the space-blocked
// baseline through engine::run_plan at any thread count, and is exactly what
// the ScheduleExecutor executes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <tuple>
#include <vector>

#include "tempest/analysis/statics/interference.hpp"
#include "tempest/core/band_plan.hpp"
#include "tempest/core/engine.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"

namespace an = tempest::analysis;
namespace eng = tempest::core::engine;
namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tc = tempest::core;
namespace tg = tempest::grid;
namespace tr = tempest::trace;
using tempest::real_t;

namespace {

struct Case {
  tg::Extents3 extents;
  int t_begin;
  int t_end;
  int radius;
  tc::TileSpec spec;  ///< diamond: tile_t is the height, tile_x the width
};

struct DiamondCase : Case {};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.extents << " t[" << c.t_begin << ',' << c.t_end
            << ") r=" << c.radius << " tiles(" << c.spec.tile_t << ','
            << c.spec.tile_x << ',' << c.spec.tile_y << ") blocks("
            << c.spec.block_x << ',' << c.spec.block_y << ')';
}

std::ostream& operator<<(std::ostream& os, const DiamondCase& c) {
  return os << c.extents << " t[" << c.t_begin << ',' << c.t_end
            << ") r=" << c.radius << " diamond(h=" << c.spec.tile_t
            << ",w=" << c.spec.tile_x << ")";
}

/// A diamond TileSpec from the (height, width, block_x, block_y) shape.
tc::TileSpec diamond_tiles(int height, int width, int bx, int by) {
  return tc::TileSpec{height, width, width, bx, by};
}

}  // namespace

class WavefrontSchedule : public ::testing::TestWithParam<Case> {};

TEST_P(WavefrontSchedule, IsLegalCoversEverythingOnce) {
  const Case& c = GetParam();
  const auto ops = tc::BandPlan::wavefront(c.extents, c.t_begin, c.t_end,
                                           /*slope=*/c.radius, c.spec)
                       .serial_ops();
  const std::string verdict =
      tc::validate_schedule(c.extents, c.t_begin, c.t_end, c.radius, ops);
  EXPECT_EQ(verdict, "") << GetParam();
}

TEST_P(WavefrontSchedule, LargerSlopeStillLegal) {
  // Over-skewing (slope > radius) is always safe.
  const Case& c = GetParam();
  const auto ops = tc::BandPlan::wavefront(c.extents, c.t_begin, c.t_end,
                                           c.radius + 2, c.spec)
                       .serial_ops();
  EXPECT_EQ(
      tc::validate_schedule(c.extents, c.t_begin, c.t_end, c.radius, ops),
      "");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WavefrontSchedule,
    ::testing::Values(
        Case{{12, 10, 4}, 1, 9, 1, {4, 8, 8, 4, 4}},
        Case{{12, 10, 4}, 1, 9, 2, {4, 8, 8, 4, 4}},
        Case{{16, 16, 4}, 1, 12, 2, {3, 8, 8, 8, 8}},
        Case{{16, 16, 4}, 0, 7, 4, {8, 16, 16, 4, 4}},
        Case{{7, 9, 3}, 1, 11, 2, {2, 4, 4, 2, 2}},     // odd extents
        Case{{7, 9, 3}, 1, 11, 2, {16, 64, 64, 8, 8}},  // tiles > domain
        Case{{24, 6, 3}, 1, 6, 3, {5, 6, 6, 3, 3}},
        Case{{10, 10, 2}, 1, 4, 6, {2, 8, 8, 8, 8}},    // steep slope
        Case{{10, 10, 2}, 3, 4, 2, {4, 8, 8, 4, 4}},    // single timestep
        Case{{32, 4, 2}, 1, 16, 2, {4, 8, 4, 8, 4}}));

TEST(WavefrontSchedule, UnderSkewedScheduleIsIllegal) {
  // With slope < radius the schedule must violate dependencies — this proves
  // the validator has teeth and that the slope choice is load-bearing.
  const tg::Extents3 e{16, 16, 4};
  const tc::TileSpec spec{4, 8, 8, 4, 4};
  const auto ops =
      tc::BandPlan::wavefront(e, 1, 10, /*slope=*/1, spec).serial_ops();
  EXPECT_NE(tc::validate_schedule(e, 1, 10, /*radius=*/2, ops), "");
}

TEST(WavefrontSchedule, ZeroSlopeEqualsUnsafeTimeTiling) {
  const tg::Extents3 e{16, 16, 4};
  const tc::TileSpec spec{4, 8, 8, 4, 4};
  const auto ops =
      tc::BandPlan::wavefront(e, 1, 10, /*slope=*/0, spec).serial_ops();
  EXPECT_NE(tc::validate_schedule(e, 1, 10, 1, ops), "");
}

TEST(SpaceBlockedSchedule, AlwaysLegal) {
  const tg::Extents3 e{16, 12, 4};
  const tc::TileSpec spec{4, 8, 8, 4, 4};
  const auto ops = tc::BandPlan::space_blocked(e, 1, 8, spec).serial_ops();
  EXPECT_EQ(tc::validate_schedule(e, 1, 8, /*radius=*/4, ops), "");
}

TEST(Validator, DetectsDoubleCompute) {
  const tg::Extents3 e{4, 4, 2};
  const tc::TileSpec spec{1, 64, 64, 64, 64};
  auto ops = tc::BandPlan::space_blocked(e, 1, 3, spec).serial_ops();
  ops.push_back(ops.front());  // recompute a block
  EXPECT_NE(tc::validate_schedule(e, 1, 3, 1, ops), "");
}

TEST(Validator, DetectsMissingPoint) {
  const tg::Extents3 e{4, 4, 2};
  const tc::TileSpec spec{1, 64, 64, 64, 64};
  auto ops = tc::BandPlan::space_blocked(e, 1, 3, spec).serial_ops();
  ops.pop_back();
  EXPECT_NE(tc::validate_schedule(e, 1, 3, 1, ops), "");
}

TEST(Validator, DetectsReorderedTimesteps) {
  const tg::Extents3 e{4, 4, 2};
  const tc::TileSpec spec{1, 64, 64, 64, 64};
  auto ops = tc::BandPlan::space_blocked(e, 1, 3, spec).serial_ops();
  ASSERT_EQ(ops.size(), 2u);
  std::swap(ops[0], ops[1]);
  EXPECT_NE(tc::validate_schedule(e, 1, 3, 1, ops), "");
}

TEST(Validator, DetectsPartialZCoverage) {
  const tg::Extents3 e{4, 4, 8};
  std::vector<tc::ScheduleOp> ops{{1, {{0, 4}, {0, 4}, {0, 4}}}};
  EXPECT_NE(tc::validate_schedule(e, 1, 2, 1, ops), "");
}

TEST(TileSpec, Validity) {
  EXPECT_TRUE(tc::TileSpec{}.valid());
  EXPECT_FALSE((tc::TileSpec{0, 8, 8, 4, 4}).valid());
  EXPECT_FALSE((tc::TileSpec{4, 8, 8, 4, 0}).valid());
}

class DiamondSchedule : public ::testing::TestWithParam<DiamondCase> {};

TEST_P(DiamondSchedule, IsLegalCoversEverythingOnce) {
  const DiamondCase& c = GetParam();
  const auto ops = tc::BandPlan::diamond(c.extents, c.t_begin, c.t_end,
                                         c.radius, c.spec)
                       .serial_ops();
  EXPECT_EQ(tc::validate_schedule(c.extents, c.t_begin, c.t_end, c.radius,
                                  ops),
            "")
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DiamondSchedule,
    ::testing::Values(
        DiamondCase{{{16, 10, 4}, 1, 9, 1, diamond_tiles(4, 8, 4, 4)}},
        DiamondCase{{{16, 10, 4}, 1, 9, 2, diamond_tiles(2, 8, 4, 4)}},
        DiamondCase{{{24, 8, 4}, 1, 13, 2, diamond_tiles(4, 16, 8, 8)}},
        // odd extents
        DiamondCase{{{13, 9, 3}, 1, 11, 1, diamond_tiles(3, 10, 4, 4)}},
        // degenerate height 1
        DiamondCase{{{8, 8, 2}, 0, 5, 2, diamond_tiles(1, 4, 8, 8)}},
        DiamondCase{{{40, 6, 2}, 1, 7, 3, diamond_tiles(2, 12, 8, 8)}},
        // single timestep
        DiamondCase{{{16, 10, 4}, 3, 4, 2, diamond_tiles(4, 16, 8, 8)}}));

TEST(DiamondSchedule, RejectsTooNarrowWidth) {
  const tg::Extents3 e{16, 8, 4};
  // width < 2*slope*height
  EXPECT_THROW(
      (void)tc::BandPlan::diamond(e, 1, 9, 2, diamond_tiles(4, 8, 4, 4)),
      tempest::util::PreconditionError);
}

TEST(DiamondSchedule, UnderSlopedScheduleIsIllegal) {
  // Built with slope 1 but validated against radius 2: must violate.
  const tg::Extents3 e{24, 8, 4};
  const auto ops =
      tc::BandPlan::diamond(e, 1, 9, /*slope=*/1, diamond_tiles(4, 16, 4, 4))
          .serial_ops();
  EXPECT_NE(tc::validate_schedule(e, 1, 9, /*radius=*/2, ops), "");
}

namespace {

/// Generic 3-D damped-averaging "stencil" with radius 1 used to check that
/// the temporally blocked plans compute the exact same field as the
/// timestep-sweep baseline for an arbitrary (non-physics) kernel.
struct ToyStencil {
  tg::Extents3 e;
  tg::TimeBuffer<double> buf;

  explicit ToyStencil(tg::Extents3 extents)
      : e(extents), buf(3, extents, 1, 0.0) {
    // Deterministic non-trivial initial state in slots 0 and 1.
    for (int s : {0, 1}) {
      buf.slot(s).for_each_interior([&](int x, int y, int z) {
        buf.slot(s)(x, y, z) =
            0.01 * (x + 1) * (s + 1) + 0.02 * y - 0.005 * z * x;
      });
    }
  }

  void block(int t, const tg::Box3& b) {
    auto& un = buf.at(t + 1);
    const auto& uc = buf.at(t);
    const auto& up = buf.at(t - 1);
    for (int x = b.x.lo; x < b.x.hi; ++x) {
      for (int y = b.y.lo; y < b.y.hi; ++y) {
        for (int z = b.z.lo; z < b.z.hi; ++z) {
          un(x, y, z) =
              0.99 * uc(x, y, z) - 0.45 * up(x, y, z) +
              0.05 * (uc(x - 1, y, z) + uc(x + 1, y, z) + uc(x, y - 1, z) +
                      uc(x, y + 1, z) + uc(x, y, z - 1) + uc(x, y, z + 1));
        }
      }
    }
  }
};

/// Run `plan` on a fresh ToyStencil at 1 and 4 threads and require both to
/// equal the space-blocked sweep bit for bit.
void expect_matches_space_blocked(const tg::Extents3& e, int nt,
                                  const tc::BandPlan& plan) {
  ToyStencil base(e);
  eng::run_plan(tc::BandPlan::space_blocked(e, 1, nt, plan.spec), 1,
                [&](int t, const tg::Box3& b) { base.block(t, b); });
  for (const int threads : {1, 4}) {
    ToyStencil blocked(e);
    eng::run_plan(plan, threads,
                  [&](int t, const tg::Box3& b) { blocked.block(t, b); });
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(tg::max_abs_diff(base.buf.slot(s), blocked.buf.slot(s)), 0.0)
          << plan.str() << " slot " << s << " threads " << threads;
    }
  }
}

}  // namespace

class WavefrontNumerics : public ::testing::TestWithParam<tc::TileSpec> {};

TEST_P(WavefrontNumerics, MatchesSpaceBlockedBitExact) {
  const tg::Extents3 e{14, 11, 6};
  const int nt = 13;
  expect_matches_space_blocked(
      e, nt, tc::BandPlan::wavefront(e, 1, nt, /*slope=*/1, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    TileShapes, WavefrontNumerics,
    ::testing::Values(tc::TileSpec{1, 4, 4, 4, 4},   // degenerate: t-tile 1
                      tc::TileSpec{2, 4, 4, 2, 2},
                      tc::TileSpec{4, 8, 8, 4, 4},
                      tc::TileSpec{13, 6, 5, 3, 2},  // whole time range
                      tc::TileSpec{3, 32, 32, 8, 8},  // tiles > domain
                      tc::TileSpec{5, 4, 8, 4, 8}));

TEST(DiamondNumerics, MatchesSpaceBlockedBitExact) {
  const tg::Extents3 e{18, 9, 5};
  const int nt = 12;
  expect_matches_space_blocked(
      e, nt,
      tc::BandPlan::diamond(e, 1, nt, /*slope=*/1, diamond_tiles(4, 10, 4, 4)));
}

TEST(DiamondAcoustic, MatchesBaselineWithSourcesAndReceivers) {
  const tg::Extents3 e{24, 20, 16};
  ph::Geometry g{e, 10.0, 4, 4};
  const auto model = ph::make_acoustic_layered(g, 1.5, 3.0, 3);
  const int nt = 20;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));
  sp::SparseTimeSeries rec_base(sp::receiver_line(e, 4, 0.2, 4), nt);
  sp::SparseTimeSeries rec_diam = rec_base;

  ph::AcousticPropagator base(model);
  base.run(ph::Schedule::SpaceBlocked, src, &rec_base);
  const auto u_base = base.wavefield(nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 16, 16, 4, 4};
  ph::AcousticPropagator diam(model, opts);
  diam.run(ph::Schedule::Diamond, src, &rec_diam);

  EXPECT_EQ(tg::max_abs_diff(u_base, diam.wavefield(nt)), 0.0);
  double scale = 1e-20;
  for (int t = 0; t < nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      scale = std::max(scale,
                       std::fabs(static_cast<double>(rec_base.at(t, r))));
  for (int t = 0; t < nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      EXPECT_NEAR(rec_diam.at(t, r), rec_base.at(t, r), 1e-5 * scale);
}

TEST(DiamondAcoustic, AutoWidensNarrowTiles) {
  // tile_x far below 2*radius*tile_t: the propagator widens the diamond
  // period instead of producing an illegal schedule.
  const tg::Extents3 e{24, 16, 12};
  ph::Geometry g{e, 10.0, 4, 4};
  const auto model = ph::make_acoustic_layered(g);
  const int nt = 12;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));

  ph::AcousticPropagator base(model);
  base.run(ph::Schedule::SpaceBlocked, src, nullptr);
  const auto u_base = base.wavefield(nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{8, 4, 4, 4, 4};  // 4 << 2*2*8
  ph::AcousticPropagator diam(model, opts);
  diam.run(ph::Schedule::Diamond, src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(u_base, diam.wavefield(nt)), 0.0);
}

TEST(DiamondAcoustic, StepCallbackRejectedUnderDiamond) {
  // Diamond is legal for every physics (schedule_matrix_test covers the
  // cross-kernel equivalence); what stays illegal is a per-timestep
  // callback, since no global time barrier exists under temporal blocking.
  const tg::Extents3 e{16, 16, 16};
  ph::Geometry g{e, 10.0, 4, 4};
  const auto model = ph::make_acoustic_layered(g);
  const int nt = 8;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));
  ph::AcousticPropagator p(model);
  EXPECT_THROW(p.run(ph::Schedule::Diamond, src, nullptr, [](int) {}),
               tempest::util::PreconditionError);
}

// ------------------------------------------------- executed equals planned

namespace {

/// A PhysicsKernel that computes nothing and logs every (substep, block)
/// the executor hands it. S = 1 declares the acoustic access shape, S = 2
/// the elastic one (radius per substep, doubled per timestep).
template <int S>
class RecordingKernel {
 public:
  static constexpr int kSubstepsPerStep = S;
  static constexpr int kFirstStep = S == 1 ? 1 : 0;

  explicit RecordingKernel(const tg::Extents3& e)
      : e_(e), field_(e, 2, real_t{0}) {}

  [[nodiscard]] const tg::Extents3& extents() const { return e_; }
  [[nodiscard]] int radius() const { return 2; }
  void apply(int s, const tg::Box3& box) {
    const std::lock_guard<std::mutex> lock(mu_);
    log_.push_back({s, box});
  }
  [[nodiscard]] eng::FieldRefs inject_fields(int /*t*/) { return {}; }
  [[nodiscard]] const tg::Grid3<real_t>& gather_field(int /*t*/) const {
    return field_;
  }
  [[nodiscard]] real_t inject_scale(int, int, int) const { return 1; }
  [[nodiscard]] eng::HealthFields health_fields(int /*t*/) { return {}; }
  [[nodiscard]] an::AccessSummary access_summary() const {
    return S == 1 ? ph::acoustic_access_summary(4)
                  : ph::elastic_access_summary(4);
  }

  [[nodiscard]] const std::vector<tc::ScheduleOp>& log() const {
    return log_;
  }

 private:
  tg::Extents3 e_;
  tg::Grid3<real_t> field_;
  std::mutex mu_;
  std::vector<tc::ScheduleOp> log_;
};

std::vector<tc::ScheduleOp> sorted(std::vector<tc::ScheduleOp> ops) {
  std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
    return std::tie(a.t, a.box.x.lo, a.box.y.lo) <
           std::tie(b.t, b.box.x.lo, b.box.y.lo);
  });
  return ops;
}

template <int S>
void expect_executes_its_plan(eng::Schedule sched) {
  const tg::Extents3 e{21, 17, 5};
  const int nt = 11;
  eng::ExecutionOptions opts;
  opts.tiles = tc::TileSpec{3, 8, 8, 4, 4};
  const int t_first = RecordingKernel<S>::kFirstStep;
  const int slope = 2;  // RecordingKernel::radius(), per substep
  const int height = S * opts.tiles.tile_t;
  const tc::BandPlan plan = an::statics::plan_for(
      sched == eng::Schedule::Wavefront
          ? an::ScheduleDescriptor::wavefront(slope, height)
          : an::ScheduleDescriptor::diamond(slope, height),
      e, opts.tiles, S * t_first, S * nt);
  const std::vector<tc::ScheduleOp> planned = plan.serial_ops();
  EXPECT_EQ(tc::validate_schedule(e, S * t_first, S * nt, slope, planned), "")
      << plan.str();

  sp::SparseTimeSeries src(sp::CoordList{}, nt);
  sp::SparseTimeSeries rec(sp::receiver_line(e, 4, 0.3, 2), nt);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << eng::to_string(sched) << " S=" << S
                                    << " threads=" << threads);
    opts.threads = threads;
    RecordingKernel<S> kernel(e);
    eng::ScheduleExecutor<RecordingKernel<S>> exec(kernel, opts);
#if !defined(TEMPEST_TRACE_DISABLED)
    tr::reset();
    tr::set_enabled(true);
#endif
    (void)exec.run_from(t_first, sched, src, &rec, {});
#if !defined(TEMPEST_TRACE_DISABLED)
    tr::set_enabled(false);
    // One tile per task that computes anything, in every family.
    EXPECT_EQ(tr::value(tr::Counter::TilesExecuted), plan.nonempty_tasks());
    EXPECT_EQ(tr::value(tr::Counter::BandsExecuted),
              static_cast<long long>(plan.bands.size()));
#endif
    if (threads == 1) {
      EXPECT_EQ(kernel.log(), planned);
    } else {
      EXPECT_EQ(sorted(kernel.log()), sorted(planned));
    }
  }
}

}  // namespace

TEST(ExecutedPlan, WavefrontRunsItsPlan) {
  expect_executes_its_plan<1>(eng::Schedule::Wavefront);
  expect_executes_its_plan<2>(eng::Schedule::Wavefront);
}

TEST(ExecutedPlan, DiamondRunsItsPlan) {
  expect_executes_its_plan<1>(eng::Schedule::Diamond);
  expect_executes_its_plan<2>(eng::Schedule::Diamond);
}
