// The propagator surface every physics shares (physics::Propagator), tested
// once over all five families — acoustic, TTI, VTI, elastic and the
// DSL-authored acoustic equation — and only through the base class:
//
//   * the stability gate: an explicit dt 1% beyond the model family's hard
//     von Neumann bound is rejected at construction with a
//     StaticVerificationError naming the family, and allow_unstable admits
//     the same dt, which then constructs and runs;
//   * kill and resume: a run killed mid-shot right after a checkpoint save,
//     restored into a fresh propagator (the restarted process) and resumed
//     with run_from(), reproduces the uninterrupted run's gather and state
//     bitwise.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "tempest/analysis/statics/verify.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace dsl = tempest::dsl;
namespace ph = tempest::physics;
namespace rs = tempest::resilience;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace statics = tempest::analysis::statics;

namespace {

/// One family on a small layered model: the model (kept alive by the
/// factory), its critical dt, and a factory for propagators over it.
struct Subject {
  tg::Extents3 extents;
  double critical_dt = 0.0;
  std::function<std::unique_ptr<ph::Propagator>(const ph::PropagatorOptions&)>
      make;
};

template <typename Propagator, typename Model>
Subject subject_of(Model model) {
  const auto m = std::make_shared<const Model>(std::move(model));
  return {m->geom.extents, m->critical_dt(),
          [m](const ph::PropagatorOptions& opts) {
            return std::make_unique<Propagator>(*m, opts);
          }};
}

Subject acoustic() {
  const ph::Geometry g{{16, 14, 12}, 10.0, 4, /*nbl=*/4};
  return subject_of<ph::AcousticPropagator>(
      ph::make_acoustic_layered(g, 1.5, 3.0, 3));
}

Subject tti() {
  const ph::Geometry g{{14, 13, 12}, 20.0, 4, /*nbl=*/4};
  return subject_of<ph::TTIPropagator>(ph::make_tti_layered(g, 1.5, 3.0, 3));
}

Subject vti() {
  const ph::Geometry g{{14, 12, 12}, 20.0, 4, /*nbl=*/4};
  ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
  model.theta.fill(0.0f);  // untilted: a genuine VTI medium
  model.phi.fill(0.0f);
  return subject_of<ph::VTIPropagator>(std::move(model));
}

Subject elastic() {
  const ph::Geometry g{{14, 12, 10}, 10.0, 4, /*nbl=*/4};
  return subject_of<ph::ElasticPropagator>(
      ph::make_elastic_layered(g, 1.5, 3.0, 3));
}

Subject dsl_acoustic() {
  const ph::Geometry g{{16, 14, 12}, 10.0, 4, /*nbl=*/4};
  const auto m = std::make_shared<const ph::AcousticModel>(
      ph::make_acoustic_layered(g, 1.5, 3.0, 3));
  return {m->geom.extents, m->critical_dt(),
          [m](const ph::PropagatorOptions& opts) {
            return std::make_unique<dsl::DslPropagator>(
                dsl::acoustic_equation(), *m, opts, dsl::ParamBindings{},
                "dsl-acoustic");
          }};
}

struct Case {
  const char* family;  ///< the name the propagator's diagnostics carry
  Subject (*subject)();
  int nt;
  int kill_at;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.family;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.family;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

/// Thrown from a step callback to model the process dying mid-run.
struct KillSignal {};

class TempFile {
 public:
  TempFile()
      : path_("/tmp/tempest_propagator_test_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter_++) + ".tpck") {}
  ~TempFile() {
    for (const char* suffix : {"", ".tmp", ".1"}) {
      std::remove((path_ + suffix).c_str());
    }
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempFile::counter_ = 0;

sp::SparseTimeSeries source_for(const Subject& s, int nt) {
  sp::SparseTimeSeries src(sp::single_center_source(s.extents, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, s.critical_dt, 0.02));
  return src;
}

}  // namespace

class PropagatorSurface : public ::testing::TestWithParam<Case> {};

TEST_P(PropagatorSurface, UnstableDtRejectedUnlessAllowed) {
  const Case& c = GetParam();
  const Subject s = c.subject();
  // critical_dt() is the hard bound derated by the 0.9 safety factor.
  ph::PropagatorOptions opts;
  opts.dt = s.critical_dt / 0.9 * 1.01;
  try {
    (void)s.make(opts);
    FAIL() << c.family << ": dt 1% beyond the hard bound was accepted";
  } catch (const statics::StaticVerificationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'" + std::string(c.family) + "'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unstable-dt"), std::string::npos) << msg;
  }

  opts.allow_unstable = true;
  const std::unique_ptr<ph::Propagator> prop = s.make(opts);
  EXPECT_EQ(prop->dt(), opts.dt);
  const sp::SparseTimeSeries src = source_for(s, 4);
  EXPECT_NO_THROW(prop->run(ph::Schedule::SpaceBlocked, src));

  // The model's own critical dt passes by construction.
  opts.allow_unstable = false;
  opts.dt = s.critical_dt;
  EXPECT_NO_THROW((void)s.make(opts));
}

TEST_P(PropagatorSurface, KilledRunResumesBitwise) {
  const Case& c = GetParam();
  const Subject s = c.subject();
  const sp::SparseTimeSeries src = source_for(s, c.nt);
  const sp::SparseTimeSeries rec_proto(sp::receiver_line(s.extents, 4, 0.15, 3),
                                       c.nt);

  const std::unique_ptr<ph::Propagator> ref = s.make({});
  auto rec_ref = rec_proto;
  ref->run(ph::Schedule::SpaceBlocked, src, &rec_ref);

  rs::Fingerprint fp;
  fp.add(s.extents.nx).add(s.extents.ny).add(s.extents.nz).add(c.nt);
  TempFile file;
  rs::Checkpointer ckpt(file.path());
  {
    const std::unique_ptr<ph::Propagator> first = s.make({});
    auto rec = rec_proto;
    EXPECT_THROW(first->run(ph::Schedule::SpaceBlocked, src, &rec,
                            [&](int t_done) {
                              if (t_done == c.kill_at) {
                                ckpt.save(
                                    first->capture(t_done, fp.value(), &rec));
                                throw KillSignal{};  // the process "dies"
                              }
                            }),
                 KillSignal);
  }

  // A fresh propagator models the restarted process.
  const std::unique_ptr<ph::Propagator> resumed = s.make({});
  const auto ck = ckpt.try_load(fp.value());
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->step, c.kill_at);
  ASSERT_TRUE(ck->has_rec);
  resumed->restore(*ck);
  auto rec_resumed = ck->rec;
  resumed->run_from(ck->step, ph::Schedule::SpaceBlocked, src, &rec_resumed);

  for (int t = 0; t < c.nt; ++t) {
    for (int r = 0; r < rec_ref.npoints(); ++r) {
      ASSERT_EQ(rec_ref.at(t, r), rec_resumed.at(t, r))
          << "t=" << t << " r=" << r;
    }
  }
  // Every state slice, compared through the base's own snapshot.
  const rs::Checkpoint want = ref->capture(c.nt, 0);
  const rs::Checkpoint got = resumed->capture(c.nt, 0);
  ASSERT_EQ(want.slots.size(), got.slots.size());
  for (std::size_t i = 0; i < want.slots.size(); ++i) {
    EXPECT_EQ(tg::max_abs_diff(want.slots[i], got.slots[i]), 0.0)
        << "slice " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PropagatorSurface,
    ::testing::Values(Case{"acoustic", acoustic, 20, 11},
                      Case{"tti", tti, 18, 9}, Case{"vti", vti, 18, 10},
                      Case{"elastic", elastic, 16, 7},
                      Case{"dsl-acoustic", dsl_acoustic, 20, 10}),
    case_name);
