// Property suite for the typed-IR frontend: for *randomized* DSL equations
// in the lowerable fragment, the access footprint the lowering declares
// structurally (LoweredKernel::accesses, what the legality verifier
// consumes) must equal the footprint of the loads the DslKernel tape — the
// evaluator that actually runs — performs per point. A structural footprint
// that under-reports loads would let the legality verifier approve an
// illegal schedule; one that over-reports would reject legal ones — either
// way the bug is invisible to example-based tests, hence the generator.
//
// Seeding follows property_test.cpp: a SplitMix64 stream keyed by
// TEMPEST_PROPERTY_SEED (fixed default), replayable via
//   TEMPEST_PROPERTY_SEED=<seed> ctest -R dsl_property

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tempest/dsl/kernel.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/util/rng.hpp"

namespace ph = tempest::physics;
namespace tg = tempest::grid;
namespace dsl = tempest::dsl;
namespace tu = tempest::util;
using tempest::real_t;

namespace {

std::uint64_t base_seed() {
  constexpr std::uint64_t kDefault = 20260808u;
  const char* env = std::getenv("TEMPEST_PROPERTY_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return kDefault;
}

std::vector<std::uint64_t> derived_seeds() {
  const std::uint64_t key = base_seed();
  tu::SplitMix64 stream(key);
  std::vector<std::uint64_t> seeds{key};
  for (int i = 0; i < 7; ++i) seeds.push_back(stream.next());
  return seeds;
}

/// A random scalar equation inside the lowerable fragment: a required time
/// derivative (Dt2, optionally also Dt), an optional Laplacian, optional
/// pointwise mass/center terms, with coefficients drawn from constants and
/// the model-bound parameter names.
struct RandomEq {
  dsl::Eq eq;
  int space_order;
  bool has_laplace;
  bool has_dt;         ///< first-order damping term present
  bool reads_backward; ///< a u(t-1) center read outside the derivatives
};

RandomEq random_equation(tu::SplitMix64& rng) {
  const int orders[] = {2, 4, 8};
  const int so = orders[rng.below(3)];
  dsl::Grid g;
  dsl::TimeFunction u("u", g, so, 2);

  auto coeff = [&]() -> dsl::Expr {
    switch (rng.below(3)) {
      case 0: return dsl::param("m");
      case 1: return dsl::param("vp");
      default: return dsl::constant(rng.uniform(0.5, 2.0));
    }
  };

  dsl::Expr eq = coeff() * u.dt2();
  const bool has_dt = rng.below(2) == 0;
  if (has_dt) eq = eq + coeff() * u.dt();
  const bool has_laplace = rng.below(4) != 0;  // usually present
  if (has_laplace) eq = eq - u.laplace();
  const bool center_term = rng.below(2) == 0;
  if (center_term) eq = eq + coeff() * u.now();
  const bool reads_backward = rng.below(3) == 0;
  if (reads_backward) eq = eq - dsl::constant(0.25) * u.backward();
  return {dsl::solve(eq, u.forward()), so, has_laplace, has_dt,
          reads_backward};
}

using Offset = std::tuple<int, int, int, int>;  ///< (dt, dx, dy, dz)

/// Per-time-slice axis hull of a set of offsets.
struct Hull {
  int xlo = 0, xhi = 0, ylo = 0, yhi = 0, zlo = 0, zhi = 0;
  bool any = false;
  void absorb(int dx, int dy, int dz) {
    if (!any) {
      xlo = xhi = dx;
      ylo = yhi = dy;
      zlo = zhi = dz;
      any = true;
      return;
    }
    xlo = std::min(xlo, dx);
    xhi = std::max(xhi, dx);
    ylo = std::min(ylo, dy);
    yhi = std::max(yhi, dy);
    zlo = std::min(zlo, dz);
    zhi = std::max(zhi, dz);
  }
};

}  // namespace

class DslFootprintProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    trace_ = std::make_unique<::testing::ScopedTrace>(
        __FILE__, __LINE__,
        ::testing::Message() << "seed=" << GetParam()
                             << " (replay: TEMPEST_PROPERTY_SEED="
                             << GetParam() << ")");
  }
  void TearDown() override { trace_.reset(); }

 private:
  std::unique_ptr<::testing::ScopedTrace> trace_;
};

// The property: structural footprint == observed footprint, exactly.
// Declared read hulls per time slice must match the hull of the loads the
// tape performs, the declared radius must match the deepest spatial
// reach, and the write access must be the centre point at t+1.
TEST_P(DslFootprintProperty, StructuralAccessesMatchObservedLoads) {
  tu::SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const RandomEq r = random_equation(rng);
    const dsl::LoweredKernel lowered =
        dsl::lower_kernel(r.eq, r.space_order, 10.0, 0.5, "prop");

    // -- Observe: the loads the kernel's tape performs per point.
    const tg::Extents3 e{2 * lowered.radius() + 3, 2 * lowered.radius() + 3,
                         2 * lowered.radius() + 3};
    ph::Geometry geom{e, 10.0, r.space_order, 0};
    const ph::AcousticModel model = ph::make_acoustic_homogeneous(geom, 1.5);
    tg::TimeBuffer<real_t> u(3, e, geom.radius(), real_t{1});
    const dsl::DslKernel kernel(lowered, model, {}, u, 0.5);
    std::set<Offset> observed;
    for (const dsl::DslKernel::Load& l : kernel.loads()) {
      observed.insert({l.dt, l.dx, l.dy, l.dz});
    }
    ASSERT_FALSE(observed.empty());

    // -- Structural footprint, from the accesses the lowering declared.
    std::set<int> declared_times;
    Hull declared[2];  // index by -dt: 0 = t, 1 = t-1
    int writes = 0;
    for (const auto& a : lowered.accesses) {
      if (a.is_write) {
        ++writes;
        EXPECT_EQ(a.time, 1);
        EXPECT_FALSE(a.x.star);
        EXPECT_EQ(a.x.lo, 0);
        EXPECT_EQ(a.x.hi, 0);
        continue;
      }
      ASSERT_TRUE(a.time == 0 || a.time == -1);
      declared_times.insert(a.time);
      ASSERT_FALSE(a.x.star || a.y.star || a.z.star);
      auto& h = declared[-a.time];
      // Declared hulls are rectangular ranges; absorb both corners.
      h.absorb(a.x.lo, a.y.lo, a.z.lo);
      h.absorb(a.x.hi, a.y.hi, a.z.hi);
    }
    EXPECT_EQ(writes, 1);

    // -- Compare. Observed time slices == declared time slices.
    std::set<int> observed_times;
    Hull seen[2];
    int max_reach = 0;
    for (const auto& [dt, dx, dy, dz] : observed) {
      ASSERT_TRUE(dt == 0 || dt == -1) << "load outside {t, t-1}: " << dt;
      observed_times.insert(dt);
      seen[-dt].absorb(dx, dy, dz);
      max_reach = std::max({max_reach, std::abs(dx), std::abs(dy),
                            std::abs(dz)});
    }
    EXPECT_EQ(observed_times, declared_times);
    for (int slot = 0; slot < 2; ++slot) {
      ASSERT_EQ(seen[slot].any, declared[slot].any) << "slot " << slot;
      if (!seen[slot].any) continue;
      EXPECT_EQ(seen[slot].xlo, declared[slot].xlo);
      EXPECT_EQ(seen[slot].xhi, declared[slot].xhi);
      EXPECT_EQ(seen[slot].ylo, declared[slot].ylo);
      EXPECT_EQ(seen[slot].yhi, declared[slot].yhi);
      EXPECT_EQ(seen[slot].zlo, declared[slot].zlo);
      EXPECT_EQ(seen[slot].zhi, declared[slot].zhi);
    }
    EXPECT_EQ(lowered.radius(), max_reach);

    // Structural consistency with the summary the engine consumes.
    const auto summary = lowered.summary();
    EXPECT_EQ(summary.radius, max_reach);
    const std::set<int> summary_times(summary.time_reads.begin(),
                                      summary.time_reads.end());
    EXPECT_EQ(summary_times, declared_times);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DslFootprintProperty,
                         ::testing::ValuesIn(derived_seeds()));
