// The tempest benchmark: runs one workload through the library's public API,
// checks its outputs, and writes its metrics. One workload per process, so
// peak_rss_mb is the workload's own.
//
//   tempest_bench --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
//
// Writes DIR/<workload>-seed<N>-trace<0|1>.json (verdict, metrics, every
// sample and the host fingerprint) and, with --trace=1, the benchmark's own
// spans as Chrome trace JSON in DIR/<workload>-seed<N>.trace.json. Exits 0
// when every output check passed, 1 when one failed, 2 on bad arguments.
// perfbench/run.py builds this binary and prints the result line.
//
// The timed run (--trace=0) leaves program tracing off and reports the
// end-to-end metrics. The traced run (--trace=1) reports the per-layer
// metrics: it times the benchmark's calls into each module, reads the
// program's work counters through trace::snapshot(), and runs the
// differential passes (serial, stencil-only, standalone sparse and
// checkpoint calls) that the timed run must not pay for.

#include <dlfcn.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "tempest/codegen/emit.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/dsl/operator.hpp"
#include "tempest/io/io.hpp"
#include "tempest/jobs/survey.hpp"
#include "tempest/perf/metrics.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/damping.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/operators.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/json.hpp"
#include "tempest/util/rng.hpp"

namespace perfbench {
namespace {

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
namespace tr = tempest::trace;
using tempest::real_t;

/// Worker threads of every workload: the host's core count, fixed so a run
/// on a larger machine measures the same configuration.
constexpr int kThreads = 4;
/// Fewest shots a timed shot workload measures, however long they take.
constexpr int kMinShots = 3;
/// Fewest surveys a timed survey run measures (setup_s is their median).
constexpr int kMinSurveys = 3;
constexpr sp::InterpKind kInterp = sp::InterpKind::Trilinear;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  /// Threading variables as the environment set them (the benchmark sets
  /// none but TEMPEST_THREADS, for the survey, after recording it).
  std::map<std::string, std::optional<std::string>> environment;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Result {
  Tally tally;
  std::vector<std::string> problems;  ///< failed checks, in words
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> details;
  std::map<std::string, std::vector<double>> samples;

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  [[nodiscard]] bool correct() const {
    return problems.empty() && tally.failed == 0 && tally.attempted > 0;
  }
};

/// The per-layer readings of a traced run. Every workload reports every
/// field; one that a workload does not exercise stays 0.
struct Layers {
  double masks_s = 0, decompose_s = 0, receivers_s = 0, compress_s = 0;
  double precompute_run_s = 0;
  double npts = 0, mask_bytes = 0;
  double loop_s = 0, point_updates = 0;
  tr::CounterSnapshot counters{};
  double serial_loop_s = 0, cpu_s = 0, cpu_wall_s = 0;
  double stencil_only_s = 0, subnormal_cells = 0;
  double flops_pp = 0, bytes_pp = 0;
  double inject_s = 0, interp_s = 0, interp_serial_s = 0;
  double ckpt_save_s = 0, ckpt_bytes = 0, ckpt_count = 0;
  double gather_save_s = 0, gather_bytes = 0;
  double jobs_overhead_s = 0, attempts = 0, degraded = 0, quarantined = 0;
  double dsl_lower_s = 0, dsl_hand_ratio = 0;
  double compile_s = 0, c_bytes = 0;
  double traced_shot_s = 0, untraced_shot_s = 0;
  double working_set_bytes = 0;
};

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long long count_subnormals(const tg::Grid3<real_t>& f) {
  long long n = 0;
  const tg::Extents3& e = f.extents();
  for (int x = 0; x < e.nx; ++x) {
    for (int y = 0; y < e.ny; ++y) {
      const real_t* row = &f(x, y, 0);
      for (int z = 0; z < e.nz; ++z) {
        if (std::fpclassify(row[z]) == FP_SUBNORMAL) ++n;
      }
    }
  }
  return n;
}

/// Details of the worst gather comparison of a run, under `prefix`.
void record_check(Result& r, const std::string& prefix, double rel_tol,
                  const GatherCheck& ck) {
  r.details[prefix + ".rel_tolerance"] = rel_tol;
  r.details[prefix + ".max_abs_diff"] = ck.max_abs_diff;
  r.details[prefix + ".max_abs_ref"] = ck.max_ref;
  r.details[prefix + ".inexact_samples"] = static_cast<double>(ck.inexact);
}

// ---------------------------------------------------------------------------
// Standalone layer passes shared by the workloads (traced run only).

/// The four precompute stages the wavefront and diamond schedules run
/// inside run(), called one by one on the workload's sparse sets.
void standalone_precompute(const tg::Extents3& e,
                           const sp::SparseTimeSeries& src,
                           const sp::SparseTimeSeries& rec,
                           SpanRecorder& spans, Layers& L) {
  tc::SourceMasks masks;
  L.masks_s = timed(spans, "core.build_source_masks",
                    [&] { masks = tc::build_source_masks(e, src, kInterp); });
  tc::DecomposedSource dcmp;
  L.decompose_s = timed(spans, "core.decompose_sources", [&] {
    dcmp = tc::decompose_sources(masks, src, kInterp);
  });
  tc::DecomposedReceivers drec;
  L.receivers_s = timed(spans, "core.decompose_receivers", [&] {
    drec = tc::decompose_receivers(e, rec, kInterp);
  });
  L.compress_s = timed(spans, "core.compress", [&] {
    const tc::CompressedSparse cs_src(masks.sm, masks.sid);
    const tc::CompressedSparse cs_rec(drec.rm, drec.rid);
  });
  L.npts = masks.npts;
  L.mask_bytes = static_cast<double>(
      masks.sm.padded_size() * sizeof(unsigned char) +
      masks.sid.padded_size() * sizeof(int) +
      drec.rm.padded_size() * sizeof(unsigned char) +
      drec.rid.padded_size() * sizeof(int));
}

/// The space-blocked schedule's per-timestep sparse operators, called
/// standalone for nt steps on a zeroed field of the workload's shape.
void standalone_sparse(const tg::Extents3& e, int radius,
                       const sp::SparseTimeSeries& src,
                       const sp::SparseTimeSeries& rec, SpanRecorder& spans,
                       Layers& L) {
  tg::Grid3<real_t> u(e, radius, real_t{0});
  const sp::SupportCache src_cache(src, kInterp, e);
  const sp::ColorSets colors(src_cache, e);
  const sp::SupportCache rec_cache(rec, kInterp, e);
  const auto scale = [](int, int, int) { return real_t{1}; };
  L.inject_s = timed(spans, "sparse.inject_colored", [&] {
    for (int t = 0; t < src.nt(); ++t) {
      sp::inject_colored(u, src, t, src_cache, colors, kThreads, scale);
    }
  });
  sp::SparseTimeSeries out = rec;
  L.interp_s = timed(spans, "sparse.interpolate_cached", [&] {
    for (int t = 0; t < out.nt(); ++t) {
      sp::interpolate_cached(u, out, t, rec_cache, kThreads);
    }
  });
  L.interp_serial_s = timed(spans, "sparse.interpolate_cached.serial", [&] {
    for (int t = 0; t < out.nt(); ++t) {
      sp::interpolate_cached(u, out, t, rec_cache, 1);
    }
  });
}

// ---------------------------------------------------------------------------
// Shot workloads: shot-acoustic-wtb, shot-dense-sources, dsl-sponge.

struct ShotConfig {
  std::string name;
  int n = 256;  ///< cubic extent, absorbing layer included
  int so = 4;
  int nt = 96;
  ph::Schedule sched = ph::Schedule::Wavefront;
  bool dense = false;  ///< 32768 dense_volume sources, 128x128 carpet
  bool dsl = false;    ///< sponge equation through dsl::DslPropagator
};

const ShotConfig kShotAcousticWtb{"shot-acoustic-wtb", 256, 4, 96,
                                  ph::Schedule::Wavefront, false, false};
const ShotConfig kShotDenseSources{"shot-dense-sources", 256, 4, 96,
                                   ph::Schedule::Wavefront, true, false};
const ShotConfig kDslSponge{"dsl-sponge", 96, 4, 24, ph::Schedule::Diamond,
                            false, true};

ph::Geometry geometry(const ShotConfig& c) {
  return ph::Geometry{{c.n, c.n, c.n}, 10.0, c.so, 10};
}

/// Source and receiver placement, drawn from the workload seed.
void place(const ShotConfig& c, const tg::Extents3& e, std::uint64_t seed,
           sp::CoordList& src, sp::CoordList& rec) {
  tempest::util::SplitMix64 rng(seed);
  const double rec_depth = rng.uniform(0.03, 0.08);
  if (c.dense) {
    src = sp::dense_volume(e, 32768, rng.next());
    rec = sp::receiver_carpet(e, 128, 128, rec_depth);
  } else {
    src = {sp::Coord3{rng.uniform(0.3, 0.7) * (e.nx - 1),
                      rng.uniform(0.3, 0.7) * (e.ny - 1),
                      rng.uniform(0.05, 0.2) * (e.nz - 1)}};
    rec = sp::receiver_line(e, 128, rec_depth);
  }
}

/// The sponge equation of the DSL frontend tests:
/// m u.dt2 + eta u.dt - laplace(u) = 0, eta a bound grid.
tempest::dsl::Eq sponge_eq() {
  namespace dsl = tempest::dsl;
  dsl::Grid g;
  dsl::TimeFunction u("u", g, 4, 2);
  return dsl::solve(dsl::param("m") * u.dt2() + dsl::param("eta") * u.dt() -
                        u.laplace(),
                    u.forward());
}

/// Everything one shot builds. Heap-held because the propagators keep
/// references to the model.
struct Shot {
  ph::AcousticModel model;
  tg::Grid3<real_t> eta;  ///< dsl-sponge: the grid the equation binds
  sp::SparseTimeSeries src;
  sp::SparseTimeSeries rec;
  std::unique_ptr<ph::AcousticPropagator> hand;
  std::unique_ptr<tempest::dsl::DslPropagator> dsl;
  double construct_s = 0.0;  ///< propagator construction (DSL: lowering)

  ph::RunStats run(ph::Schedule s) {
    return dsl ? dsl->run(s, src, &rec) : hand->run(s, src, &rec);
  }
  [[nodiscard]] const tg::Grid3<real_t>& wavefield(int t) const {
    return dsl ? dsl->wavefield(t) : hand->wavefield(t);
  }
};

struct ShotBuild {
  int threads = kThreads;
  /// Build the hand-written AcousticPropagator even for dsl-sponge, on a
  /// model whose damp is the sponge: the DSL output check's reference.
  bool hand = false;
  bool empty_sparse = false;  ///< no sources, no receivers
};

std::unique_ptr<Shot> build_shot(const ShotConfig& c, std::uint64_t seed,
                                 const ShotBuild& b, SpanRecorder& spans) {
  auto shot = std::make_unique<Shot>();
  const ph::Geometry g = geometry(c);
  timed(spans, "physics.model", [&] {
    shot->model = ph::make_acoustic_layered(g, 1.5, 3.5, 5);
    if (c.dsl) {
      shot->eta = ph::make_sponge_profile(g, 1.5, 0.001, 3);
      if (b.hand) shot->model.damp = shot->eta;
    }
  });
  timed(spans, "sparse.acquisition", [&] {
    sp::CoordList src;
    sp::CoordList rec;
    if (!b.empty_sparse) place(c, g.extents, seed, src, rec);
    shot->src = sp::SparseTimeSeries(std::move(src), c.nt);
    shot->src.broadcast_signature(
        sp::ricker(c.nt, shot->model.critical_dt(), 0.010));
    shot->rec = sp::SparseTimeSeries(std::move(rec), c.nt);
  });
  ph::PropagatorOptions opts;
  opts.threads = b.threads;
  if (c.dsl && !b.hand) {
    shot->construct_s = timed(spans, "dsl.DslPropagator", [&] {
      shot->dsl = std::make_unique<tempest::dsl::DslPropagator>(
          sponge_eq(), shot->model, opts,
          tempest::dsl::ParamBindings{{"eta", &shot->eta}}, "sponge");
    });
  } else {
    shot->construct_s = timed(spans, "physics.AcousticPropagator", [&] {
      shot->hand = std::make_unique<ph::AcousticPropagator>(shot->model, opts);
    });
  }
  return shot;
}

/// Emit the sponge kernel as C, compile it with the system compiler the
/// way codegen::JitModule does, and load it. JitModule itself stages its
/// files under /tmp; the benchmark keeps every file inside its own output
/// directory, so it runs the same command there.
void compile_sponge(const tempest::dsl::LoweredKernel& lowered,
                    const std::string& out, SpanRecorder& spans, Layers& L,
                    Result& r) {
  namespace cg = tempest::codegen;
  const std::string dir = out + "/jit";
  std::filesystem::create_directories(dir);
  const std::string c_path = dir + "/sponge.c";
  const std::string so_path = dir + "/sponge.so";
  cg::KernelSpec spec;
  spec.space_order = lowered.space_order;
  spec.wavefront = true;
  spec.kernel = lowered.name;
  bool ok = false;
  L.compile_s = timed(spans, "codegen.compile", [&] {
    const std::string source = cg::emit_dsl_c(lowered, spec);
    L.c_bytes = static_cast<double>(source.size());
    std::ofstream(c_path) << source;
    const char* cc = std::getenv("CC");
    const std::string cmd =
        "TMPDIR='" + dir + "' " + (cc != nullptr && *cc ? cc : "cc") +
        " -O3 -fopenmp-simd -ffp-contract=off -fPIC -shared -o '" + so_path +
        "' '" + c_path + "' > '" + dir + "/cc.log' 2>&1";
    if (std::system(cmd.c_str()) != 0) return;
    void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) return;
    ok = dlsym(handle, spec.symbol().c_str()) != nullptr;
    dlclose(handle);
  });
  if (!ok) r.problems.push_back("codegen: generated sponge kernel failed "
                                "to compile or load (see jit/cc.log)");
}

void run_shot_workload(const ShotConfig& c, const Options& o, Result& r,
                       SpanRecorder& spans, Layers& L) {
  SpanRecorder off(false);
  std::vector<double> setup_s, shot_s, gpts, loop_s, pre_s, construct_s;
  // Traced run: shot seconds of the traced and untraced shots after the
  // first, and the untraced shots' layer readings.
  std::vector<double> traced_s, untraced_s;
  std::vector<double> clean_loop_s, clean_pre_s, clean_cpu_s, clean_wall_s;
  std::vector<sp::SparseTimeSeries> gathers;
  std::vector<std::uint64_t> digests;  // final wavefield of each shot
  long long point_updates = 0;

  // The timed run measures shots until --seconds is spent; the traced run
  // measures five, alternating untraced (program tracing off, no spans)
  // and traced (work counters and spans on). bench.trace_overhead compares
  // the two kinds after the process's first shot, which is untraced and
  // slower than the rest. Every shot builds its model and propagator from
  // scratch, as a survey shot does, and none is dropped as warm-up.
  const Clock::time_point loop_t0 = Clock::now();
  for (int k = 0;
       o.trace ? k < 5 : (k < kMinShots || seconds_since(loop_t0) < o.seconds);
       ++k) {
    const bool traced = o.trace && k % 2 == 1;
    SpanRecorder& rec = traced ? spans : off;
    rec.set_shot(k);
    const SpanRecorder::Scope shot_span(rec, "bench.shot");
    try {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<Shot> shot = build_shot(c, o.seed, {}, rec);
      setup_s.push_back(seconds_since(t0));
      construct_s.push_back(shot->construct_s);
      if (traced) {
        tr::reset();
        tr::set_enabled(true);
      }
      ph::RunStats st;
      const double cpu0 = cpu_seconds();
      const double s = timed(rec, c.dsl ? "dsl.run" : "physics.run",
                             [&] { st = shot->run(c.sched); });
      const double cpu = cpu_seconds() - cpu0;
      if (traced) {
        L.counters = tr::snapshot();
        tr::set_enabled(false);
        tr::reset();
        L.subnormal_cells = static_cast<double>(
            count_subnormals(shot->wavefield(c.nt)));
      } else {
        clean_loop_s.push_back(st.seconds);
        clean_pre_s.push_back(st.precompute_seconds);
        clean_cpu_s.push_back(cpu);
        clean_wall_s.push_back(s);
      }
      if (k > 0) (traced ? traced_s : untraced_s).push_back(s);
      shot_s.push_back(s);
      loop_s.push_back(st.seconds);
      pre_s.push_back(st.precompute_seconds);
      gpts.push_back(st.gpoints_per_s());
      point_updates = st.point_updates;
      gathers.push_back(std::move(shot->rec));
      digests.push_back(field_digest(shot->wavefield(c.nt)));
    } catch (const std::exception& e) {
      tr::set_enabled(false);
      r.tally.record(false);
      r.problems.push_back(std::string("shot threw: ") + e.what());
    }
  }

  // Output check, untimed and after the measured shots so the process's
  // first shot is a measured one. Reference: the same inputs on the
  // space-blocked schedule (dsl-sponge: the hand-written kernel with
  // damp = eta, on the same diamond schedule). The final wavefield must
  // match bit for bit; the gather bit for bit on the same schedule and to
  // rounding (kCrossScheduleGatherTol) across schedules.
  spans.set_shot(-1);
  ShotBuild ref_build;
  ref_build.hand = true;
  std::unique_ptr<Shot> ref = build_shot(c, o.seed, ref_build, spans);
  const ph::Schedule ref_sched =
      c.dsl ? c.sched : ph::Schedule::SpaceBlocked;
  ph::RunStats ref_stats;
  timed(spans, "physics.run.reference",
        [&] { ref_stats = ref->run(ref_sched); });
  const std::uint64_t ref_digest = field_digest(ref->wavefield(c.nt));
  const double tol = ref_sched == c.sched ? 0.0 : kCrossScheduleGatherTol;
  const std::string ref_name =
      c.dsl ? "the hand-written kernel" : "the space-blocked schedule";
  GatherCheck worst;
  for (std::size_t i = 0; i < gathers.size(); ++i) {
    const GatherCheck ck = compare_gathers(gathers[i], ref->rec, tol);
    const bool same_field = digests[i] == ref_digest;
    r.tally.record(ck.ok && same_field);
    if (ck.max_abs_diff >= worst.max_abs_diff) worst = ck;
    if (!ck.ok) {
      r.problems.push_back(c.name + ": gather differs from " + ref_name +
                           " in " + std::to_string(ck.mismatched) +
                           " samples");
    }
    if (!same_field) {
      r.problems.push_back(c.name + ": final wavefield differs from " +
                           ref_name);
    }
  }
  record_check(r, "check", tol, worst);

  r.samples["setup_s"] = setup_s;
  r.samples["shot_s"] = shot_s;
  r.samples["loop_s"] = loop_s;
  r.samples["precompute_s"] = pre_s;
  r.samples["gpts"] = gpts;
  r.details["loop_wall_s"] = seconds_since(loop_t0);

  const tg::Extents3 e = geometry(c).extents;
  const double padded = static_cast<double>(ref->model.m.padded_size());
  // Bytes the time loop touches: three wavefield slots, m and damp, plus
  // the decomposed source series (wavefront/diamond only).
  L.working_set_bytes =
      5.0 * padded * sizeof(real_t) +
      static_cast<double>(c.nt) * ref->src.npoints() *
          std::pow(sp::support_width(kInterp), 3) * sizeof(real_t);

  if (!o.trace) {
    r.metric("shot_s", median(shot_s), "s");
    r.metric("gpts", median(gpts), "GPts/s");
    // Shots a user would complete per hour at this set-up and shot time
    // (the output checks' work is excluded).
    double busy = 0.0;
    for (std::size_t i = 0; i < shot_s.size(); ++i) {
      busy += setup_s[i] + shot_s[i];
    }
    r.metric("shots_per_hour",
             static_cast<double>(shot_s.size()) * 3600.0 / busy, "shots/h");
    r.metric("setup_s", median(setup_s), "s");
    return;
  }

  // --- Traced run: the per-layer readings and differential passes. ---
  L.loop_s = median(clean_loop_s);
  L.precompute_run_s = median(clean_pre_s);
  L.cpu_s = median(clean_cpu_s);
  L.cpu_wall_s = median(clean_wall_s);
  L.point_updates = static_cast<double>(point_updates);
  L.traced_shot_s = median(traced_s);
  L.untraced_shot_s = median(untraced_s);
  L.flops_pp = tempest::perf::acoustic_flops_per_point(c.so);
  L.bytes_pp = tempest::perf::acoustic_stream_bytes_per_point();
  if (c.dsl) {
    L.dsl_lower_s = median(construct_s);
    L.dsl_hand_ratio = L.loop_s / ref_stats.seconds;
  }
  {
    const SpanRecorder::Scope span(spans, "bench.precompute");
    standalone_precompute(e, ref->src, ref->rec, spans, L);
  }
  {
    const SpanRecorder::Scope span(spans, "bench.sparse");
    standalone_sparse(e, c.so / 2, ref->src, ref->rec, spans, L);
  }
  ref.reset();
  {
    const SpanRecorder::Scope span(spans, "bench.serial");
    ShotBuild b;
    b.threads = 1;
    auto shot = build_shot(c, o.seed, b, spans);
    timed(spans, "physics.run.serial",
          [&] { L.serial_loop_s = shot->run(c.sched).seconds; });
  }
  {
    const SpanRecorder::Scope span(spans, "bench.stencil_only");
    ShotBuild b;
    b.empty_sparse = true;
    auto shot = build_shot(c, o.seed, b, spans);
    timed(spans, "physics.run.stencil_only",
          [&] { L.stencil_only_s = shot->run(c.sched).seconds; });
  }
  if (c.dsl) {
    const SpanRecorder::Scope span(spans, "bench.codegen");
    auto shot = build_shot(c, o.seed, {}, spans);
    compile_sponge(shot->dsl->lowered(), o.out, spans, L, r);
  }
}

// ---------------------------------------------------------------------------
// survey-elastic-barrier: jobs::run_survey, elastic, space-blocked rung.

tempest::jobs::SurveySpec survey_spec(const Options& o) {
  tempest::jobs::SurveySpec spec;
  spec.n = 128;
  spec.nt = 96;
  spec.n_shots = 4;
  spec.space_order = 4;
  spec.physics = "elastic";
  spec.schedule = ph::Schedule::SpaceBlocked;
  spec.jobs_dir = o.out + "/survey_jobs";
  return spec;  // checkpoint, health, black-box and retry defaults kept
}

/// Shot 0 of the survey, rebuilt outside run_survey with the inputs
/// run_survey gives it (jobs/survey.cpp: model, wavelet, source position,
/// receiver carpet, tiles and health cadence).
struct SurveyShot {
  ph::ElasticModel model;
  sp::SparseTimeSeries src;
  sp::SparseTimeSeries rec;
  ph::PropagatorOptions opts;

  explicit SurveyShot(const tempest::jobs::SurveySpec& spec,
                      bool empty_sparse = false) {
    const int n = spec.n;
    const ph::Geometry geom{{n, n, n}, 10.0, spec.space_order, 10};
    model = ph::make_elastic_layered(geom, 1.5, 4.0, 6);
    sp::CoordList s;
    sp::CoordList r;
    if (!empty_sparse) {
      s = {sp::Coord3{0.25 * (n - 1) + 0.37, 0.5 * (n - 1) + 0.61,
                      0.1 * (n - 1) + 0.43}};
      r = sp::receiver_carpet(geom.extents, 16, 8);
    }
    src = sp::SparseTimeSeries(std::move(s), spec.nt);
    src.broadcast_signature(
        sp::ricker(spec.nt, model.critical_dt(), 0.008));
    rec = sp::SparseTimeSeries(std::move(r), spec.nt);
    opts.tiles = tc::TileSpec{8, 64, 64, 8, 8};
    opts.health.check_every = spec.health_every;
    opts.threads = kThreads;
  }
};

void run_survey_workload(const Options& o, Result& r, SpanRecorder& spans,
                         Layers& L) {
  namespace jobs = tempest::jobs;
  SpanRecorder off(false);
  const jobs::SurveySpec spec = survey_spec(o);
  std::vector<double> shot_s, setup_s, traced_s, untraced_s;
  std::vector<sp::SparseTimeSeries> shot0;  // each survey's decoded gather
  std::vector<bool> shot0_ok;  // and whether its shot 0 finished cleanly
  double done = 0.0;
  double wall_total = 0.0;

  // The timed run measures surveys until --seconds is spent; the traced
  // run three: untraced, traced, untraced. bench.trace_overhead compares
  // the last two, after the process's first survey.
  const Clock::time_point loop_t0 = Clock::now();
  for (int k = 0; o.trace ? k < 3
                          : (k < kMinSurveys ||
                             seconds_since(loop_t0) < o.seconds);
       ++k) {
    const bool traced = o.trace && k == 1;
    SpanRecorder& rec = traced ? spans : off;
    std::filesystem::remove_all(spec.jobs_dir);
    if (traced) {
      tr::reset();
      tr::set_enabled(true);
    }
    jobs::SurveyReport report;
    const double wall = timed(rec, "jobs.run_survey",
                              [&] { report = jobs::run_survey(spec); });
    if (traced) {
      L.counters = tr::snapshot();
      tr::set_enabled(false);
      tr::reset();
    }
    double in_shots = 0.0;
    for (const jobs::ShotReport& s : report.shots) {
      if (k > 0) (traced ? traced_s : untraced_s).push_back(s.seconds);
      const bool ok = survey_shot_ok(s);
      if (s.shot == 0) {
        shot0_ok.push_back(ok);  // recorded once its gather is checked
      } else {
        r.tally.record(ok);
      }
      if (!ok) {
        r.problems.push_back("survey shot " + std::to_string(s.shot) + ": " +
                             s.state + " on " + s.level_name + " after " +
                             std::to_string(s.attempts) + " attempt(s)");
      }
      shot_s.push_back(s.seconds);
      in_shots += s.seconds;
    }
    setup_s.push_back(wall - in_shots);
    done += report.done;
    wall_total += wall;
    L.attempts = 0;
    for (const jobs::ShotReport& s : report.shots) L.attempts += s.attempts;
    L.degraded = report.degraded;
    L.quarantined = report.quarantined;
    timed(rec, "io.load_gather", [&] {
      shot0.push_back(shot0_ok.back() ? tempest::io::load_gather(
                                            jobs::shot_gather_path(spec, 0))
                                      : sp::SparseTimeSeries{});
    });
  }

  // Output check: each survey's decoded shot-0 gather against untimed
  // runs of the same shot outside run_survey: bit for bit against its own
  // space-blocked rung, and to rounding (kCrossScheduleGatherTol) against
  // the wavefront rung.
  spans.set_shot(-1);
  auto ref = std::make_unique<SurveyShot>(spec);
  sp::SparseTimeSeries rung_gather = ref->rec;
  ph::RunStats ref_stats;
  {
    ph::ElasticPropagator prop(ref->model, ref->opts);
    timed(spans, "physics.run.reference", [&] {
      prop.run(spec.schedule, ref->src, &rung_gather);
    });
  }
  {
    ph::ElasticPropagator prop(ref->model, ref->opts);
    timed(spans, "physics.run.reference.wavefront", [&] {
      ref_stats = prop.run(ph::Schedule::Wavefront, ref->src, &ref->rec);
    });
  }
  GatherCheck worst;
  for (std::size_t i = 0; i < shot0.size(); ++i) {
    if (!shot0_ok[i]) {
      r.tally.record(false);
      continue;
    }
    const GatherCheck same_rung = compare_gathers(shot0[i], rung_gather, 0.0);
    const GatherCheck wavefront =
        compare_gathers(shot0[i], ref->rec, kCrossScheduleGatherTol);
    if (wavefront.max_abs_diff >= worst.max_abs_diff) worst = wavefront;
    r.tally.record(same_rung.ok && wavefront.ok);
    if (!same_rung.ok || !wavefront.ok) {
      r.problems.push_back(
          "survey shot 0: decoded gather differs from the space-blocked "
          "rung in " + std::to_string(same_rung.mismatched) +
          " samples and from the wavefront rung in " +
          std::to_string(wavefront.mismatched));
    }
  }
  record_check(r, "check", kCrossScheduleGatherTol, worst);

  std::vector<double> gpts;
  for (const double s : shot_s) {
    gpts.push_back(static_cast<double>(ref_stats.point_updates) / s / 1e9);
  }
  r.samples["shot_s"] = shot_s;
  r.samples["setup_s"] = setup_s;
  r.samples["gpts"] = gpts;
  r.details["survey_wall_s"] = wall_total;
  r.details["survey_shots_done"] = done;
  const double padded = static_cast<double>(ref->model.b.padded_size());
  // Nine wavefields plus lam, mu, b and damp.
  L.working_set_bytes = 13.0 * padded * sizeof(real_t);

  if (!o.trace) {
    r.metric("shot_s", median(shot_s), "s");
    r.metric("gpts", median(gpts), "GPts/s");
    r.metric("shots_per_hour", done * 3600.0 / wall_total, "shots/h");
    r.metric("setup_s", median(setup_s), "s");
    return;
  }

  // --- Traced run. ---
  L.traced_shot_s = median(traced_s);
  L.untraced_shot_s = median(untraced_s);
  L.jobs_overhead_s = median(setup_s);
  L.point_updates = static_cast<double>(ref_stats.point_updates);
  L.flops_pp = tempest::perf::elastic_flops_per_point(spec.space_order);
  L.bytes_pp = tempest::perf::elastic_stream_bytes_per_point();
  for (long long& v : L.counters) v /= spec.n_shots;  // per shot
  {
    // The survey's rung run directly at 4 threads, with run_survey's
    // checkpoint cadence counted (not written).
    const SpanRecorder::Scope span(spans, "bench.engine");
    ph::ElasticPropagator prop(ref->model, ref->opts);
    sp::SparseTimeSeries gather = ref->rec;
    const auto on_step = [&](int t) {
      if (spec.ckpt_every > 0 && t % spec.ckpt_every == 0 && t < spec.nt) {
        L.ckpt_count += 1;
      }
    };
    const double cpu0 = cpu_seconds();
    L.cpu_wall_s = timed(spans, "physics.run", [&] {
      L.loop_s = prop.run(spec.schedule, ref->src, &gather, on_step).seconds;
    });
    L.cpu_s = cpu_seconds() - cpu0;
    for (const tg::Grid3<real_t>* f :
         {&prop.vx(), &prop.vy(), &prop.vz(), &prop.txx(), &prop.tyy(),
          &prop.tzz(), &prop.txy(), &prop.txz(), &prop.tyz()}) {
      L.subnormal_cells += static_cast<double>(count_subnormals(*f));
    }
    const std::string ck_path = o.out + "/bench_checkpoint.tpck";
    const tempest::resilience::Checkpointer ckpt(ck_path);
    L.ckpt_save_s = timed(spans, "resilience.Checkpointer.save", [&] {
      ckpt.save(prop.capture(spec.nt, 1, &gather));
    });
    L.ckpt_bytes = static_cast<double>(std::filesystem::file_size(ck_path));
    ckpt.remove_all();
    const std::string g_path = o.out + "/bench_gather.tpg";
    L.gather_save_s = timed(spans, "io.save_gather",
                            [&] { tempest::io::save_gather(g_path, gather); });
    L.gather_bytes = static_cast<double>(std::filesystem::file_size(g_path));
    std::filesystem::remove(g_path);
  }
  {
    const SpanRecorder::Scope span(spans, "bench.serial");
    ph::PropagatorOptions opts = ref->opts;
    opts.threads = 1;
    ph::ElasticPropagator prop(ref->model, opts);
    sp::SparseTimeSeries gather = ref->rec;
    timed(spans, "physics.run.serial", [&] {
      L.serial_loop_s = prop.run(spec.schedule, ref->src, &gather).seconds;
    });
  }
  {
    const SpanRecorder::Scope span(spans, "bench.stencil_only");
    const SurveyShot empty(spec, true);
    ph::ElasticPropagator prop(empty.model, empty.opts);
    timed(spans, "physics.run.stencil_only", [&] {
      L.stencil_only_s = prop.run(spec.schedule, empty.src).seconds;
    });
  }
  {
    const SpanRecorder::Scope span(spans, "bench.sparse");
    standalone_sparse(ref->model.geom.extents, spec.space_order / 2,
                      ref->src, ref->rec, spans, L);
  }
}

// ---------------------------------------------------------------------------

void emit_layers(const Layers& L, Result& r) {
  const auto c = [&](tr::Counter k) {
    return static_cast<double>(L.counters[static_cast<int>(k)]);
  };
  r.metric("precompute.masks_s", L.masks_s, "s");
  r.metric("precompute.decompose_s", L.decompose_s, "s");
  r.metric("precompute.receivers_s", L.receivers_s, "s");
  r.metric("precompute.compress_s", L.compress_s, "s");
  r.metric("precompute.run_s", L.precompute_run_s, "s");
  r.metric("precompute.npts", L.npts, "count");
  r.metric("precompute.mask_bytes", L.mask_bytes, "bytes");
  r.metric("engine.loop_s", L.loop_s, "s");
  r.metric("engine.point_updates", L.point_updates, "count");
  r.metric("engine.cells_updated", c(tr::Counter::CellsUpdated), "count");
  r.metric("engine.blocks", c(tr::Counter::BlocksExecuted), "count");
  r.metric("engine.tiles", c(tr::Counter::TilesExecuted), "count");
  r.metric("engine.bands", c(tr::Counter::BandsExecuted), "count");
  r.metric("engine.halo_cells", c(tr::Counter::HaloCellsTouched), "count");
  r.metric("engine.serial_loop_s", L.serial_loop_s, "s");
  r.metric("engine.par_eff",
           L.loop_s > 0 ? L.serial_loop_s / (kThreads * L.loop_s) : 0.0,
           "ratio");
  r.metric("engine.cpu_s", L.cpu_s, "s");
  r.metric("engine.cpu_per_wall", L.cpu_wall_s > 0 ? L.cpu_s / L.cpu_wall_s : 0,
           "ratio");
  r.metric("physics.stencil_only_s", L.stencil_only_s, "s");
  r.metric("physics.subnormal_cells", L.subnormal_cells, "count");
  r.metric("physics.flops_computed", L.flops_pp, "flop/update");
  r.metric("physics.bytes_computed", L.bytes_pp, "B/update");
  r.metric("sparse.fused_s", L.loop_s - L.stencil_only_s, "s");
  r.metric("sparse.inject_s", L.inject_s, "s");
  r.metric("sparse.interp_s", L.interp_s, "s");
  r.metric("sparse.interp_serial_s", L.interp_serial_s, "s");
  r.metric("checkpoint.save_s", L.ckpt_save_s, "s");
  r.metric("checkpoint.bytes", L.ckpt_bytes, "bytes");
  r.metric("checkpoint.count", L.ckpt_count, "count");
  r.metric("io.gather_save_s", L.gather_save_s, "s");
  r.metric("io.gather_bytes", L.gather_bytes, "bytes");
  r.metric("jobs.overhead_s", L.jobs_overhead_s, "s");
  r.metric("jobs.attempts", L.attempts, "count");
  r.metric("jobs.degraded", L.degraded, "count");
  r.metric("jobs.quarantined", L.quarantined, "count");
  r.metric("dsl.lower_s", L.dsl_lower_s, "s");
  r.metric("dsl.hand_ratio", L.dsl_hand_ratio, "ratio");
  r.metric("codegen.compile_s", L.compile_s, "s");
  r.metric("codegen.c_bytes", L.c_bytes, "bytes");
  r.metric("bench.trace_overhead",
           L.untraced_shot_s > 0 ? L.traced_shot_s / L.untraced_shot_s - 1.0
                                 : 0.0,
           "ratio");
  r.metric("bench.working_set_bytes", L.working_set_bytes, "bytes");
  r.metric("bench.llc_bytes",
           static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)), "bytes");
  r.metric("bench.failed_frac", r.tally.failed_frac(), "ratio");
}

void write_result(const Options& o, const Result& r, const std::string& path,
                  const std::string& spans_path) {
  std::ofstream os(path);
  tempest::util::JsonWriter w(os);
  w.begin_object();
  w.field("workload", o.workload);
  w.field("seed", static_cast<unsigned long long>(o.seed));
  w.field("seconds", o.seconds);
  w.field("trace", o.trace);
  w.field("correct", r.correct());
  w.field("attempted", r.tally.attempted);
  w.field("failed", r.tally.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, m] : r.metrics) {
    w.key(name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("problems");
  w.begin_array();
  for (const std::string& p : r.problems) w.value(p);
  w.end_array();
  w.key("samples");
  w.begin_object();
  for (const auto& [name, v] : r.samples) {
    w.key(name);
    w.begin_object();
    w.field("n", static_cast<long long>(v.size()));
    w.field("median", median(v));
    const TailPercentile tail = tail_percentile(v);
    if (tail.found) {
      w.field("tail_percentile", tail.percentile);
      w.field("tail_value", tail.value);
    }
    w.key("values");
    w.begin_array();
    for (const double x : v) w.value(x);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("details");
  w.begin_object();
  for (const auto& [name, v] : r.details) w.field(name, v);
  w.end_object();
  w.key("host");
  w.begin_object();
  w.field("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  w.field("llc_bytes", sysconf(_SC_LEVEL3_CACHE_SIZE));
  w.field("compiler", __VERSION__);
  w.field("threads", kThreads);
  w.end_object();
  w.key("environment");
  w.begin_object();
  for (const auto& [var, v] : o.environment) {
    w.key(var);
    if (v) {
      w.value(*v);
    } else {
      w.null();
    }
  }
  w.end_object();
  if (!spans_path.empty()) w.field("spans", spans_path);
  w.end_object();
}

int run(const Options& o) {
  std::filesystem::create_directories(o.out);
  Result r;
  Layers L;
  SpanRecorder spans(o.trace);
  const std::string stem =
      o.out + "/" + o.workload + "-seed" + std::to_string(o.seed);
  if (o.workload == kShotAcousticWtb.name) {
    run_shot_workload(kShotAcousticWtb, o, r, spans, L);
  } else if (o.workload == kShotDenseSources.name) {
    run_shot_workload(kShotDenseSources, o, r, spans, L);
  } else if (o.workload == kDslSponge.name) {
    run_shot_workload(kDslSponge, o, r, spans, L);
  } else {
    run_survey_workload(o, r, spans, L);
  }
  std::string spans_path;
  if (o.trace) {
    emit_layers(L, r);
    spans_path = stem + ".trace.json";
    if (!spans.write_chrome_trace(spans_path)) {
      r.problems.push_back("cannot write " + spans_path);
    }
  } else {
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  }
  r.details["peak_rss_mb"] = peak_rss_mib();
  write_result(o, r, stem + "-trace" + (o.trace ? "1" : "0") + ".json",
               spans_path);
  for (const std::string& p : r.problems) {
    std::cerr << "CHECK FAILED: " << p << "\n";
  }
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const tempest::util::Cli cli(argc, argv);
  Options o;
  o.workload = cli.get("workload", "");
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  o.seconds = cli.get_double("seconds", 10.0);
  o.trace = cli.get_int("trace", 0) != 0;
  o.out = cli.get("out", "");
  const bool known = o.workload == "shot-acoustic-wtb" ||
                     o.workload == "shot-dense-sources" ||
                     o.workload == "survey-elastic-barrier" ||
                     o.workload == "dsl-sponge";
  if (!known || o.out.empty() || !(o.seconds > 0.0)) {
    std::cerr << "usage: tempest_bench --workload=shot-acoustic-wtb|"
                 "shot-dense-sources|survey-elastic-barrier|dsl-sponge "
                 "--seed=N --seconds=S --trace=0|1 --out=DIR\n";
    return 2;
  }
  // Recorded, never set: these move the parallel schedules' timings
  // several-fold, so a number must come from the environment users get.
  for (const char* var : {"OMP_WAIT_POLICY", "OMP_PROC_BIND", "GOMP_SPINCOUNT",
                          "OMP_NUM_THREADS", "TEMPEST_THREADS"}) {
    const char* v = std::getenv(var);
    o.environment[var] =
        v != nullptr ? std::optional<std::string>(v) : std::nullopt;
  }
  // Pin glibc's mmap threshold: every field of 1 MiB or more is mapped on
  // allocation and returned on free, so each shot's fields are fresh pages
  // (every shot pays first touch, as a process's first shot does) and
  // peak_rss_mb measures live data. glibc's default raises the threshold
  // after the first free, keeping the 4-10 MB fields of the smaller
  // workloads in the heap, where the peak then drifts by 20% from run to
  // run with thread timing.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  if (o.workload == "survey-elastic-barrier") {
    // SurveySpec has no thread field; run_survey's shots resolve their
    // worker count from the environment.
    setenv("TEMPEST_THREADS", std::to_string(kThreads).c_str(), 1);
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "tempest_bench: " << e.what() << "\n";
    return 1;
  }
}
