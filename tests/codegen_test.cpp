#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "tempest/codegen/jit.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"

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

/// The acoustic equation through the DSL propagator: it compiles its
/// lowering and runs the generated C under the engine's schedules.
dsl::DslPropagator compiled_acoustic(const ph::AcousticModel& model,
                                     const ph::PropagatorOptions& opts,
                                     const std::string& name = "acoustic") {
  return dsl::DslPropagator(dsl::acoustic_equation(), model, opts, {}, name);
}

/// Bit mask of the ISA feature macros this translation unit was compiled
/// with, and the same probe as C for the JIT: equal masks mean the JIT
/// targets the ISA the library (built with these tests' flags) targets.
constexpr const char* kIsaMacros[] = {"__SSE4_2__", "__AVX__",     "__AVX2__",
                                      "__FMA__",    "__AVX512F__", "__BMI2__"};

int host_isa_mask() {
  int m = 0;
#ifdef __SSE4_2__
  m |= 1;
#endif
#ifdef __AVX__
  m |= 2;
#endif
#ifdef __AVX2__
  m |= 4;
#endif
#ifdef __FMA__
  m |= 8;
#endif
#ifdef __AVX512F__
  m |= 16;
#endif
#ifdef __BMI2__
  m |= 32;
#endif
  return m;
}

std::string isa_probe_source() {
  std::string c = "int tempest_isa_probe(void) {\n  int m = 0;\n";
  for (int i = 0; i < 6; ++i) {
    c += std::string("#ifdef ") + kIsaMacros[i] + "\n  m |= " +
         std::to_string(1 << i) + ";\n#endif\n";
  }
  return c + "  return m;\n}\n";
}

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
  // Kernel names need not be C identifiers.
  spec.kernel = "dsl-acoustic v2";
  EXPECT_EQ(spec.symbol(), "tempest_dsl_acoustic_v2_so8");
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

  dsl::DslPropagator jit = compiled_acoustic(s.model, {});
  jit.run(ph::Schedule::SpaceBlocked, s.src);

  ASSERT_GT(tg::max_abs(aot.wavefield(s.nt)), 0.0);
  EXPECT_EQ(tg::max_abs_diff(aot.wavefield(s.nt), jit.wavefield(s.nt)), 0.0);
}

// A kernel name that is no C identifier still compiles (the symbol maps
// it) and the generated block runs == the hand-written kernel.
TEST(Jit, NonIdentifierKernelNameCompilesAndMatchesAot) {
  auto s = make_setup(4, 12);
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::AcousticPropagator aot(s.model, opts);
  aot.run(ph::Schedule::Wavefront, s.src, nullptr);

  dsl::DslPropagator jit = compiled_acoustic(s.model, opts, "dsl-acoustic");
  EXPECT_NE(cg::CompiledBlock(jit.lowered())
                .source_code()
                .find("void tempest_dsl_acoustic_so4("),
            std::string::npos);
  jit.run(ph::Schedule::Wavefront, s.src);
  ASSERT_GT(tg::max_abs(aot.wavefield(s.nt)), 0.0);
  EXPECT_EQ(tg::max_abs_diff(aot.wavefield(s.nt), jit.wavefield(s.nt)), 0.0);
}

// Generated kernels target the library's ISA: the command line carries the
// build's ISA flags, and code compiled with it sees the same ISA feature
// macros as this test (compiled with the library's flags) does.
TEST(Jit, CommandCarriesTheLibraryIsaFlags) {
  const std::string cmd = cg::jit_compile_command();
  EXPECT_NE(cmd.find("-ffp-contract=off"), std::string::npos) << cmd;
#ifdef TEMPEST_JIT_ISA_FLAGS
  EXPECT_NE(cmd.find(TEMPEST_JIT_ISA_FLAGS), std::string::npos) << cmd;
#endif
  const cg::JitModule probe(isa_probe_source(), "tempest_isa_probe");
  EXPECT_EQ(probe.as<int(void)>()(), host_isa_mask()) << cmd;
}

// The shared object is unlinked as soon as it is loaded: every
// tempest_jit_* mapping of this process names a deleted file, so a killed
// process leaves nothing in /tmp.
TEST(Jit, LoadedModulesLeaveNoFileBehind) {
  const dsl::LoweredKernel lowered =
      dsl::lower_kernel(dsl::acoustic_equation(), 4, 10.0, 0.5, "tmp_probe");
  const cg::CompiledBlock block(lowered);
  ASSERT_NE(block.fn(), nullptr);
  std::ifstream maps("/proc/self/maps");
  ASSERT_TRUE(maps.good());
  int mapped = 0;
  for (std::string line; std::getline(maps, line);) {
    const auto at = line.find("/tempest_jit_");
    if (at == std::string::npos) continue;
    ++mapped;
    const auto slash = line.rfind(' ', at) + 1;
    EXPECT_NE(line.find(" (deleted)"), std::string::npos) << line;
    const std::string path = line.substr(slash, line.find(' ', at) - slash);
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
  EXPECT_GT(mapped, 0);
}

// Two propagators of one equation in one process share one compile: the
// cache is keyed on the emitted source and the compile command.
TEST(Jit, OneEquationCompilesOncePerProcess) {
#if defined(TEMPEST_TRACE_DISABLED)
  GTEST_SKIP() << "JitCompiles is a trace counter";
#else
  // A spacing no other test uses, so this process has not compiled it yet.
  ph::Geometry g{kE, 12.5, 4, 4};
  const ph::AcousticModel model = ph::make_acoustic_layered(g, 1.5, 3.0, 3);
  sp::SparseTimeSeries src(sp::single_center_source(kE, 0.4), 12);
  src.broadcast_signature(sp::ricker(12, model.critical_dt(), 0.02));
  tempest::trace::reset();
  tempest::trace::set_enabled(true);
  dsl::DslPropagator a = compiled_acoustic(model, {});
  dsl::DslPropagator b = compiled_acoustic(model, {});
  const long long compiles =
      tempest::trace::value(tempest::trace::Counter::JitCompiles);
  tempest::trace::set_enabled(false);
  EXPECT_EQ(compiles, 1);
  a.run(ph::Schedule::Wavefront, src);
  b.run(ph::Schedule::Wavefront, src);
  ASSERT_GT(tg::max_abs(a.wavefield(12)), 0.0);
  EXPECT_EQ(tg::max_abs_diff(a.wavefield(12), b.wavefield(12)), 0.0);
#endif
}

class JitOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(JitOrderSweep, GeneratedWavefrontMatchesAotAcrossOrders) {
  const int so = GetParam();
  auto s = make_setup(so, 14);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::AcousticPropagator aot(s.model, opts);
  aot.run(ph::Schedule::Wavefront, s.src, nullptr);

  dsl::DslPropagator jit = compiled_acoustic(s.model, opts);
  jit.run(ph::Schedule::Wavefront, s.src);

  ASSERT_GT(tg::max_abs(aot.wavefield(s.nt)), 0.0) << "so=" << so;
  EXPECT_EQ(tg::max_abs_diff(aot.wavefield(s.nt), jit.wavefield(s.nt)), 0.0)
      << "so=" << so;
}

INSTANTIATE_TEST_SUITE_P(Orders, JitOrderSweep, ::testing::Values(2, 4, 8));

TEST(Jit, WavefrontAndSpaceBlockedJitAgree) {
  auto s = make_setup(4, 12);
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{3, 8, 8, 4, 4};
  dsl::DslPropagator jit = compiled_acoustic(s.model, opts);
  jit.run(ph::Schedule::Wavefront, s.src);
  const tg::Grid3<tempest::real_t> u_wf = jit.wavefield(s.nt);
  jit.run(ph::Schedule::SpaceBlocked, s.src);

  // One compiled block, two engine schedules: identical per-point
  // arithmetic.
  EXPECT_EQ(tg::max_abs_diff(u_wf, jit.wavefield(s.nt)), 0.0);
}

TEST(Jit, SourceCodeAccessorExposesGeneratedText) {
  auto s = make_setup(4, 8);
  const dsl::DslPropagator jit = compiled_acoustic(s.model, {});
  EXPECT_NE(cg::CompiledBlock(jit.lowered())
                .source_code()
                .find("Generated by tempest::codegen"),
            std::string::npos);
}
