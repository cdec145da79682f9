#include <gtest/gtest.h>

#include "tempest/codegen/jit.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace cg = tempest::codegen;
namespace dsl = tempest::dsl;
namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;

namespace {

constexpr tg::Extents3 kE{20, 18, 16};

struct Setup {
  ph::AcousticModel model;
  sp::SparseTimeSeries src;
  int nt;
};

Setup make_setup(int so, int nt) {
  ph::Geometry g{kE, 10.0, so, 4};
  Setup s{ph::make_acoustic_layered(g, 1.5, 3.0, 3),
          sp::SparseTimeSeries(sp::single_center_source(kE, 0.4), nt), nt};
  s.src.broadcast_signature(sp::ricker(nt, s.model.critical_dt(), 0.02));
  return s;
}

std::size_t count(const std::string& s, const std::string& what) {
  std::size_t n = 0;
  for (auto p = s.find(what); p != std::string::npos;
       p = s.find(what, p + 1)) {
    ++n;
  }
  return n;
}

/// The acoustic equation through the DSL propagator with its lowering
/// compiled and attached: the generated C under the engine's schedules.
struct CompiledAcoustic {
  dsl::DslPropagator prop;
  cg::CompiledBlock block;

  CompiledAcoustic(const ph::AcousticModel& model,
                   const ph::PropagatorOptions& opts)
      : prop(dsl::acoustic_equation(), model, opts, {}, "acoustic"),
        block(prop.lowered()) {
    prop.attach_block(block.fn());
  }
};

}  // namespace

TEST(Emit, SourceContainsExpectedStructure) {
  const dsl::LoweredKernel lowered =
      dsl::lower_kernel(dsl::acoustic_equation(), 4, 10.0, 1.0, "acoustic");
  cg::KernelSpec spec;
  spec.space_order = 4;
  const std::string code = cg::emit_dsl_c(lowered, spec);
  // FD weights appear as float literals (O(2,4): w0 = -2.5, w1 = 4/3).
  EXPECT_NE(code.find("-2.500000000e+00f"), std::string::npos);
  EXPECT_NE(code.find("1.333333373e+00f"), std::string::npos);
  // Exactly one function, exported under the spec's symbol.
  EXPECT_NE(code.find("void " + spec.symbol() + "("), std::string::npos);
  EXPECT_EQ(count(code, "void "), 1u);
  EXPECT_EQ(code.find("static "), std::string::npos);
  // No schedule, no injection: the engine owns both.
  EXPECT_EQ(code.find("for (int tt"), std::string::npos);
  EXPECT_EQ(code.find("inject_block"), std::string::npos);
  EXPECT_EQ(code.find("cs_offsets"), std::string::npos);
  EXPECT_EQ(code.find("MIN("), std::string::npos);
}

TEST(Emit, SymbolNamesEncodeSpec) {
  cg::KernelSpec spec;
  spec.space_order = 8;
  spec.wavefront = true;  // no schedule in the symbol: the engine picks it
  EXPECT_EQ(spec.symbol(), "tempest_acoustic_so8");
}

TEST(Jit, RejectsInvalidSource) {
  EXPECT_THROW(cg::JitModule("this is not C;", "nope"),
               tempest::util::PreconditionError);
}

TEST(Jit, RejectsMissingSymbol) {
  EXPECT_THROW(cg::JitModule("int the_wrong_symbol(void) { return 1; }",
                             "the_right_symbol"),
               tempest::util::PreconditionError);
}

TEST(Jit, CompilesAndCallsTrivialFunction) {
  cg::JitModule mod("int tempest_answer(void) { return 42; }",
                    "tempest_answer");
  auto* fn = mod.as<int(void)>();
  EXPECT_EQ(fn(), 42);
}

TEST(Jit, GeneratedSpaceBlockedMatchesAotPropagator) {
  auto s = make_setup(4, 16);

  ph::AcousticPropagator aot(s.model);
  aot.run(ph::Schedule::SpaceBlocked, s.src, nullptr);

  CompiledAcoustic jit(s.model, {});
  jit.prop.run(ph::Schedule::SpaceBlocked, s.src);

  ASSERT_GT(tg::max_abs(aot.wavefield(s.nt)), 0.0);
  EXPECT_EQ(tg::max_abs_diff(aot.wavefield(s.nt), jit.prop.wavefield(s.nt)),
            0.0);
}

class JitOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(JitOrderSweep, GeneratedWavefrontMatchesAotAcrossOrders) {
  const int so = GetParam();
  auto s = make_setup(so, 14);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::AcousticPropagator aot(s.model, opts);
  aot.run(ph::Schedule::Wavefront, s.src, nullptr);

  CompiledAcoustic jit(s.model, opts);
  jit.prop.run(ph::Schedule::Wavefront, s.src);

  ASSERT_GT(tg::max_abs(aot.wavefield(s.nt)), 0.0) << "so=" << so;
  EXPECT_EQ(tg::max_abs_diff(aot.wavefield(s.nt), jit.prop.wavefield(s.nt)),
            0.0)
      << "so=" << so;
}

INSTANTIATE_TEST_SUITE_P(Orders, JitOrderSweep, ::testing::Values(2, 4, 8));

TEST(Jit, WavefrontAndSpaceBlockedJitAgree) {
  auto s = make_setup(4, 12);
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{3, 8, 8, 4, 4};
  CompiledAcoustic jit(s.model, opts);
  jit.prop.run(ph::Schedule::Wavefront, s.src);
  const tg::Grid3<tempest::real_t> u_wf = jit.prop.wavefield(s.nt);
  jit.prop.run(ph::Schedule::SpaceBlocked, s.src);

  // One compiled block, two engine schedules: identical per-point
  // arithmetic.
  EXPECT_EQ(tg::max_abs_diff(u_wf, jit.prop.wavefield(s.nt)), 0.0);
}

TEST(Jit, SourceCodeAccessorExposesGeneratedText) {
  auto s = make_setup(4, 8);
  CompiledAcoustic jit(s.model, {});
  EXPECT_NE(jit.block.source_code().find("Generated by tempest::codegen"),
            std::string::npos);
}
