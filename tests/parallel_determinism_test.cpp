// Thread-count invariance of the task-parallel schedule executor: every
// physics kernel x {space-blocked, wavefront, diamond} must produce
// *byte-identical* wavefields and receiver gathers — and exactly equal work
// counters — at 1, 2, and 8 worker threads. This is the determinism half of
// the task-parallel engine's contract (the race-freedom half is the TSan
// lane over these same tests, `scripts/check.sh --tsan`):
//   * stencil tiles have disjoint write footprints and the band plan's
//     staircase edges serialize every cross-tile dependence, so field
//     updates are the same arithmetic in a compatible order;
//   * receiver gathers are staged per (timestep, compressed point) and
//     reduced in ascending point order at each band barrier, replacing the
//     order-nondeterministic atomic accumulation;
//   * source injection scatters layer-by-layer through the ColorSets
//     partition, reproducing the serial per-grid-point accumulation order.
// Float addition does not commute bitwise, so EXPECT_EQ (not NEAR) on every
// artifact is the whole point: a schedule that merely "converges" at 8
// threads fails this suite.
//
// 8 threads on any host (CI runners here have 1-2 cores) oversubscribes the
// team; the determinism guarantee must not depend on real parallelism.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tempest/obs/metrics.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/threads.hpp"

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
namespace tr = tempest::trace;
namespace tu = tempest::util;
namespace obs = tempest::obs;
using tempest::real_t;

namespace {

struct Case {
  const char* kernel;  // "acoustic" | "tti" | "vti" | "elastic"
  ph::Schedule schedule;
};

const char* schedule_name(ph::Schedule s) {
  switch (s) {
    case ph::Schedule::Reference: return "reference";
    case ph::Schedule::SpaceBlocked: return "spaceblocked";
    case ph::Schedule::Wavefront: return "wavefront";
    case ph::Schedule::Diamond: return "diamond";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.kernel << '/' << schedule_name(c.schedule);
}

struct Artifacts {
  std::vector<tg::Grid3<real_t>> fields;
  sp::SparseTimeSeries rec;
  tr::CounterSnapshot counters{};
  obs::MetricSnapshot latency{};
};

Artifacts run_cell(const Case& c, int threads) {
  Artifacts out;
  tr::set_enabled(true);
  tr::reset();
  obs::reset_metrics();
  obs::set_enabled(true);
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  opts.threads = threads;

  if (std::string(c.kernel) == "acoustic") {
    const tg::Extents3 e{20, 18, 16};
    const int nt = 12;
    ph::Geometry g{e, 10.0, /*space_order=*/4, /*nbl=*/4};
    const ph::AcousticModel model = ph::make_acoustic_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 5, 0.15, 3), nt);
    ph::AcousticPropagator prop(model, opts);
    prop.run(c.schedule, src, &out.rec);
    out.fields.push_back(prop.wavefield(nt));
  } else if (std::string(c.kernel) == "tti") {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 20.0, 4, /*nbl=*/4};
    const ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::TTIPropagator prop(model, opts);
    prop.run(c.schedule, src, &out.rec);
    out.fields.push_back(prop.wavefield_p(nt));
    out.fields.push_back(prop.wavefield_q(nt));
  } else if (std::string(c.kernel) == "vti") {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 20.0, 4, /*nbl=*/4};
    ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
    model.theta.fill(0.0f);
    model.phi.fill(0.0f);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::VTIPropagator prop(model, opts);
    prop.run(c.schedule, src, &out.rec);
    out.fields.push_back(prop.wavefield_p(nt));
    out.fields.push_back(prop.wavefield_q(nt));
  } else {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 10.0, 4, /*nbl=*/4};
    const ph::ElasticModel model = ph::make_elastic_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::ElasticPropagator prop(model, opts);
    prop.run(c.schedule, src, &out.rec);
    out.fields.push_back(prop.vz());
    out.fields.push_back(prop.tzz());
    out.fields.push_back(prop.txy());
  }

  out.counters = tr::snapshot();
  out.latency = obs::snapshot_metrics();
  obs::set_enabled(false);
  tr::set_enabled(false);
  return out;
}

}  // namespace

class ParallelDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminism, BitIdenticalAtAnyThreadCount) {
  const Case& c = GetParam();
  const Artifacts serial = run_cell(c, /*threads=*/1);

  for (const int threads : {2, 8}) {
    const Artifacts got = run_cell(c, threads);

    ASSERT_EQ(serial.fields.size(), got.fields.size());
    for (std::size_t i = 0; i < serial.fields.size(); ++i) {
      EXPECT_EQ(tg::max_abs_diff(serial.fields[i], got.fields[i]), 0.0)
          << GetParam() << " field " << i << " at " << threads << " threads";
    }

    // Receiver gathers must also be *bitwise* equal — the staged
    // band-barrier reduction runs in serial point order regardless of
    // which thread sampled each column.
    ASSERT_EQ(serial.rec.nt(), got.rec.nt());
    ASSERT_EQ(serial.rec.npoints(), got.rec.npoints());
    for (int t = 0; t < serial.rec.nt(); ++t) {
      for (int r = 0; r < serial.rec.npoints(); ++r) {
        EXPECT_EQ(serial.rec.at(t, r), got.rec.at(t, r))
            << GetParam() << " t=" << t << " r=" << r << " at " << threads
            << " threads";
      }
    }

    // Work accounting is exact, not statistical: the same tiles, blocks,
    // bands, injections and interpolations happen at every thread count.
    for (int i = 0; i < tr::kNumCounters; ++i) {
      EXPECT_EQ(serial.counters[static_cast<std::size_t>(i)],
                got.counters[static_cast<std::size_t>(i)])
          << GetParam() << " counter "
          << tr::to_string(static_cast<tr::Counter>(i)) << " at " << threads
          << " threads";
    }

    // The obs latency histograms shard per thread and merge on snapshot;
    // the *sample counts* (one per tile / substep / band) are as exact as
    // the work counters at every thread count. Only the duration values
    // themselves are wall-clock and excluded by contract.
    for (int m = 0; m < obs::kNumMetrics; ++m) {
      EXPECT_EQ(serial.latency[static_cast<std::size_t>(m)].count(),
                got.latency[static_cast<std::size_t>(m)].count())
          << GetParam() << " metric "
          << obs::to_string(static_cast<obs::Metric>(m)) << " at " << threads
          << " threads";
    }
  }

#if !defined(TEMPEST_TRACE_DISABLED)
  // The counter oracle must have teeth.
  EXPECT_GT(serial.counters[static_cast<std::size_t>(
                static_cast<int>(tr::Counter::CellsUpdated))],
            0)
      << GetParam();
  // And so must the histogram oracle: every schedule executes tiles.
  EXPECT_GT(
      serial.latency[static_cast<std::size_t>(obs::Metric::TileSeconds)]
          .count(),
      0u)
      << GetParam();
#endif
}

#if !defined(TEMPEST_TRACE_DISABLED)
// Full-bucket invariance through the real shard registry: when the recorded
// *values* are deterministic (not wall-clock), the merged histogram must be
// equal bucket-for-bucket no matter how the samples were partitioned across
// worker threads — merge is element-wise addition, so aggregation order
// cannot show through.
TEST(ObsHistogramDeterminism, ShardedRecordingIsThreadCountInvariant) {
  constexpr int kTasks = 64;
  const auto run = [](int threads) {
    obs::reset_metrics();
    obs::set_enabled(true);
    tu::TaskDag dag(kTasks);
    for (int i = 1; i < kTasks; ++i) dag.add_edge(i - 1, i);
    dag.run(threads, [](int node) {
      // Deterministic per-node durations spanning several octaves.
      obs::record_ns(obs::Metric::TileSeconds,
                     static_cast<std::int64_t>(node + 1) * 1000);
      obs::record_ns(obs::Metric::BandSeconds,
                     std::int64_t{1} << (node % 30));
    });
    const obs::MetricSnapshot snap = obs::snapshot_metrics();
    obs::set_enabled(false);
    obs::reset_metrics();
    return snap;
  };

  const obs::MetricSnapshot serial = run(1);
  ASSERT_EQ(
      serial[static_cast<std::size_t>(obs::Metric::TileSeconds)].count(),
      static_cast<std::uint64_t>(kTasks));
  for (const int threads : {2, 8}) {
    const obs::MetricSnapshot got = run(threads);
    for (int m = 0; m < obs::kNumMetrics; ++m) {
      EXPECT_EQ(serial[static_cast<std::size_t>(m)],
                got[static_cast<std::size_t>(m)])
          << obs::to_string(static_cast<obs::Metric>(m)) << " at " << threads
          << " threads";
    }
  }
}
#endif  // !defined(TEMPEST_TRACE_DISABLED)

namespace {

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* kernel : {"acoustic", "tti", "vti", "elastic"}) {
    for (const ph::Schedule s : {ph::Schedule::SpaceBlocked,
                                 ph::Schedule::Wavefront,
                                 ph::Schedule::Diamond}) {
      out.push_back({kernel, s});
    }
  }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.kernel) + "_" +
         schedule_name(info.param.schedule);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(AllKernels, ParallelDeterminism,
                         ::testing::ValuesIn(cases()), case_name);

// The executor must honour $TEMPEST_THREADS when no explicit count is
// given, and an explicit request must win over the environment.
TEST(ThreadResolution, EnvAndExplicitPrecedence) {
  ASSERT_EQ(::setenv("TEMPEST_THREADS", "3", 1), 0);
  EXPECT_EQ(tu::env_threads(), 3);
  EXPECT_EQ(tu::resolve_threads(0), 3);
  EXPECT_EQ(tu::resolve_threads(5), 5);  // explicit beats env
  ASSERT_EQ(::setenv("TEMPEST_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(tu::env_threads(), 0);  // malformed: ignored
  ASSERT_EQ(::unsetenv("TEMPEST_THREADS"), 0);
  EXPECT_EQ(tu::env_threads(), 0);
  EXPECT_GE(tu::resolve_threads(0), 1);
}
