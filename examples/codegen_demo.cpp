// Code-generation demo: the Devito workflow taken all the way — lower the
// acoustic equation authored in the DSL, emit its per-block update as a C
// translation unit (FD weights baked in as literals), compile it with the
// system C compiler at run time, load it, and let the engine drive it under
// the wave-front schedule with the fused sparse operators. The result must
// be bitwise equal to the library's ahead-of-time kernel; the generated
// source is printed on request.
//
// Build & run:  ./build/examples/codegen_demo [--size=96] [--steps=60]
//               [--so=4] [--show-source]

#include <iostream>
#include <optional>

#include "tempest/codegen/jit.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tempest;
  const util::Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("size", 96));
  const int nt = static_cast<int>(cli.get_int("steps", 60));
  const int so = static_cast<int>(cli.get_int("so", 4));

  physics::Geometry geom{{n, n, n}, 10.0, so, 8};
  const auto model = physics::make_acoustic_layered(geom, 1.5, 3.0, 4);
  sparse::SparseTimeSeries src(sparse::single_center_source(geom.extents),
                               nt);
  src.broadcast_signature(sparse::ricker(nt, model.critical_dt(), 0.012));

  physics::PropagatorOptions opts;
  opts.tiles = core::TileSpec{8, 32, 32, 8, 8};

  // The DSL propagator lowers the equation, runs its statics gate, then
  // emits + compiles + loads the block (the process-wide cache is empty,
  // so this pays one compiler run).
  std::cout << "lowering + compiling the DSL acoustic block ...\n";
  util::Timer compile_timer;
  std::optional<dsl::DslPropagator> jit;
  try {
    jit.emplace(dsl::acoustic_equation(), model, opts, dsl::ParamBindings{},
                "acoustic");
  } catch (const codegen::JitCompileError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  // The propagator's own block, from the cache: no second compile.
  const std::string source =
      codegen::CompiledBlock(jit->lowered()).source_code();
  std::cout << "JIT pipeline (lower, emit, cc, dlopen): "
            << compile_timer.seconds() << " s, " << source.size()
            << " bytes of C\n";
  if (cli.get_flag("show-source")) {
    std::cout << "\n----- generated C -----\n"
              << source << "-----------------------\n";
  }

  util::Timer run_timer;
  jit->run(physics::Schedule::Wavefront, src);
  const double jit_s = run_timer.seconds();

  physics::AcousticPropagator aot(model, opts);
  run_timer.reset();
  aot.run(physics::Schedule::Wavefront, src, nullptr);
  const double aot_s = run_timer.seconds();

  const double diff =
      grid::max_abs_diff(aot.wavefield(nt), jit->wavefield(nt));
  std::cout << "generated kernel: " << jit_s << " s;  AOT kernel: " << aot_s
            << " s\n"
            << "max |AOT - JIT| = " << diff << " (field max "
            << grid::max_abs(aot.wavefield(nt)) << ")\n";
  return diff == 0.0 ? 0 : 1;
}
