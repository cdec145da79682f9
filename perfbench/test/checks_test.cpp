// The benchmark's output checks: a gather that differs from its reference
// must count as a failed shot, and a survey shot off its requested rung
// too. Built by `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "../src/bench.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace {

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
using perfbench::compare_gathers;
using perfbench::kCrossScheduleGatherTol;
using perfbench::Tally;

/// A small shot's gathers on the wavefront (the measured schedule) and
/// space-blocked (the reference) schedules, as the benchmark records them.
struct Gathers {
  sp::SparseTimeSeries wavefront;
  sp::SparseTimeSeries space_blocked;
  std::uint64_t wavefront_field = 0;
  std::uint64_t space_blocked_field = 0;
};

Gathers small_shot() {
  const ph::Geometry g{{32, 32, 32}, 10.0, 4, 6};
  const ph::AcousticModel model = ph::make_acoustic_layered(g, 1.5, 3.5, 5);
  const int nt = 40;
  sp::SparseTimeSeries src(sp::single_center_source(g.extents, 0.3), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.030));
  const sp::SparseTimeSeries rec(sp::receiver_line(g.extents, 16, 0.2, 4),
                                 nt);
  Gathers out{rec, rec};
  ph::PropagatorOptions opts;
  opts.threads = 2;
  ph::AcousticPropagator a(model, opts);
  a.run(ph::Schedule::Wavefront, src, &out.wavefront);
  out.wavefront_field = perfbench::field_digest(a.wavefield(nt));
  ph::AcousticPropagator b(model, opts);
  b.run(ph::Schedule::SpaceBlocked, src, &out.space_blocked);
  out.space_blocked_field = perfbench::field_digest(b.wavefield(nt));
  return out;
}

TEST(PerfbenchChecks, UnperturbedShotPasses) {
  const Gathers g = small_shot();
  EXPECT_EQ(g.wavefront_field, g.space_blocked_field);
  EXPECT_TRUE(compare_gathers(g.wavefront, g.wavefront, 0.0).ok);
  const auto ck =
      compare_gathers(g.wavefront, g.space_blocked, kCrossScheduleGatherTol);
  EXPECT_TRUE(ck.ok);
  EXPECT_GT(ck.max_ref, 0.0);
  Tally tally;
  tally.record(ck.ok);
  EXPECT_EQ(tally.attempted, 1);
  EXPECT_EQ(tally.failed, 0);
}

TEST(PerfbenchChecks, PerturbedGatherCountsAsFailedShot) {
  const Gathers g = small_shot();
  const auto ref_ck = compare_gathers(g.wavefront, g.space_blocked,
                                      kCrossScheduleGatherTol);
  ASSERT_TRUE(ref_ck.ok);

  // One sample one ulp off fails the bitwise same-schedule check.
  sp::SparseTimeSeries ulp = g.wavefront;
  float& s = ulp.at(ulp.nt() - 1, 3);
  s = std::nextafter(s, std::numeric_limits<float>::infinity());
  const auto bitwise = compare_gathers(ulp, g.wavefront, 0.0);
  EXPECT_FALSE(bitwise.ok);
  EXPECT_EQ(bitwise.mismatched, 1);

  // One sample off by 0.1% of the gather's peak fails the cross-schedule
  // check, whose tolerance admits only float rounding.
  sp::SparseTimeSeries big = g.wavefront;
  big.at(big.nt() / 2, 7) += static_cast<float>(1e-3 * ref_ck.max_ref);
  const auto cross =
      compare_gathers(big, g.space_blocked, kCrossScheduleGatherTol);
  EXPECT_FALSE(cross.ok);

  Tally tally;
  tally.record(ref_ck.ok);
  tally.record(bitwise.ok);
  tally.record(cross.ok);
  EXPECT_EQ(tally.attempted, 3);
  EXPECT_EQ(tally.failed, 2);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 2.0 / 3.0);
}

TEST(PerfbenchChecks, NanOrReshapedGatherFails) {
  const Gathers g = small_shot();
  sp::SparseTimeSeries nan = g.wavefront;
  nan.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(
      compare_gathers(nan, g.space_blocked, kCrossScheduleGatherTol).ok);
  const sp::SparseTimeSeries shorter(g.wavefront.coords(),
                                     g.wavefront.nt() - 1);
  EXPECT_FALSE(compare_gathers(shorter, g.wavefront, 0.0).ok);
}

TEST(PerfbenchChecks, UnderflowedSamplesMayDifferBySubnormalUnits) {
  sp::SparseTimeSeries ref({{1.5, 1.5, 1.5}}, 3);
  const float tiny = 40 * std::numeric_limits<float>::denorm_min();
  ref.at(2, 0) = tiny;
  sp::SparseTimeSeries got = ref;
  got.at(2, 0) = tiny + 2 * std::numeric_limits<float>::denorm_min();
  EXPECT_FALSE(compare_gathers(got, ref, 0.0).ok);
  EXPECT_TRUE(compare_gathers(got, ref, kCrossScheduleGatherTol).ok);
  got.at(2, 0) = 2 * tiny;
  EXPECT_FALSE(compare_gathers(got, ref, kCrossScheduleGatherTol).ok);
}

TEST(PerfbenchChecks, FieldDigestSeesOneBit) {
  tempest::grid::Grid3<float> f({4, 5, 6}, 2, 0.5f);
  const std::uint64_t before = perfbench::field_digest(f);
  f(3, 4, 5) = std::nextafter(0.5f, 1.0f);
  EXPECT_NE(perfbench::field_digest(f), before);
}

TEST(PerfbenchChecks, SurveyShotMustFinishOnItsRungFirstTime) {
  tempest::jobs::ShotReport s;
  s.state = "done";
  s.level = 0;
  s.attempts = 1;
  EXPECT_TRUE(perfbench::survey_shot_ok(s));
  auto retried = s;
  retried.attempts = 2;
  EXPECT_FALSE(perfbench::survey_shot_ok(retried));
  auto degraded = s;
  degraded.level = 1;
  degraded.degraded = true;
  EXPECT_FALSE(perfbench::survey_shot_ok(degraded));
  auto quarantined = s;
  quarantined.state = "quarantined";
  EXPECT_FALSE(perfbench::survey_shot_ok(quarantined));
}

TEST(PerfbenchSpans, NestedScopesRecordParentAndShot) {
  perfbench::SpanRecorder rec(true);
  rec.set_shot(3);
  {
    const perfbench::SpanRecorder::Scope outer(rec, "bench.shot");
    const perfbench::SpanRecorder::Scope inner(rec, "physics.run");
  }
  rec.set_shot(-1);
  { const perfbench::SpanRecorder::Scope check(rec, "bench.check"); }
  const auto& spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].shot, 3);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[2].shot, -1);
  for (const auto& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  perfbench::SpanRecorder off(false);
  { const perfbench::SpanRecorder::Scope s(off, "bench.shot"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(PerfbenchStats, MedianAndTailPercentile) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  std::vector<double> ten(10, 1.0);
  EXPECT_FALSE(perfbench::tail_percentile(ten).found);
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  const auto p = perfbench::tail_percentile(v);
  ASSERT_TRUE(p.found);
  EXPECT_DOUBLE_EQ(p.percentile, 50.0);  // ten samples above the 10th
  EXPECT_DOUBLE_EQ(p.value, 10.0);
}

}  // namespace
