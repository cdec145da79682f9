#pragma once

// Shared setup for the experiment harnesses (bench/table1_*, fig9_*, ...).
//
// Every harness accepts the same base flags:
//   --size=N     cubic grid extent (default per experiment; --full selects
//                the paper's 512)
//   --steps=N    timestep count (default: scaled-down; --full selects the
//                paper's CFL-derived counts: 228/436/587)
//   --reps=N     timing repetitions (default 1..3); every rep is actually
//                run and recorded — tables report the min, stderr notes the
//                median, and --json captures the full rep list
//   --csv        emit CSV instead of the ASCII table
//   --full       paper-scale run (512^3 grids, full time ranges)
//   --trace=F    write a Chrome trace_event JSON of the run to F
//   --metrics=F  dump tempest::trace counters to F (CSV or JSON by ext.)
//   --json[=F]   machine-readable BENCH_<name>.json (see session.hpp):
//                config, env fingerprint, per-rep times, trace counters,
//                PMU samples, derived rates, validation verdicts
//   --recalibrate  (fig11) ignore the cached machine ceilings in
//                .tempest_ceilings.json and re-run calibration
//
// The harnesses print the *rows of the paper's table or the series of the
// paper's figure*; EXPERIMENTS.md records how the shapes compare.

#include <algorithm>
#include <iostream>
#include <string>

#include "tempest/config.hpp"
#include "tempest/core/band_plan.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/table.hpp"

#include "session.hpp"

namespace bench {

using namespace tempest;

// NOTE on default sizes: wave-front temporal blocking only pays off once
// the live working set exceeds the last-level cache. The defaults below
// assume an LLC of up to a few hundred MB (large cloud VMs); shrink --size
// only for smoke tests, not for performance claims.
struct BaseConfig {
  int size = 256;
  int reps = 1;
  bool csv = false;
  bool full = false;
  int nbl = 10;
  std::string trace_path;
  std::string metrics_path;

  static BaseConfig parse(const util::Cli& cli, int default_size) {
    BaseConfig c;
    c.full = cli.get_flag("full");
    c.size = static_cast<int>(
        cli.get_int("size", c.full ? 512 : default_size));
    c.reps = static_cast<int>(cli.get_int("reps", 1));
    c.csv = cli.get_flag("csv");
    c.trace_path = cli.get("trace", "");
    c.metrics_path = cli.get("metrics", "");
    return c;
  }

  [[nodiscard]] grid::Extents3 extents() const { return {size, size, size}; }
};

/// Paper Section IV.B timestep counts at 512 ms propagation, scaled down in
/// proportion when the quick default shortens the run.
inline int steps_for_kernel(const std::string& kernel, bool full,
                            long requested) {
  if (requested > 0) return static_cast<int>(requested);
  if (kernel == "acoustic") return full ? 228 : 24;
  if (kernel == "elastic") return full ? 436 : 16;
  return full ? 587 : 12;  // tti / vti
}

/// Tuned tile/block defaults per (kernel, space order) — this machine's
/// analogue of the paper's Table I: narrow tiles where temporal reuse is
/// rich (low-order, low-byte kernels), wider tiles as halos grow. Run
/// table1_autotune to re-derive these for a new machine; fig9 accepts
/// --tiles to override.
inline core::TileSpec default_tiles(const std::string& kernel, int so) {
  if (so <= 4 && (kernel == "acoustic" || kernel == "elastic")) {
    return core::TileSpec{8, 32, 32, 8, 8};
  }
  if (kernel == "acoustic" && so == 8) {
    return core::TileSpec{16, 64, 64, 8, 8};
  }
  return core::TileSpec{8, 64, 64, 8, 8};
}

/// Single Ricker-driven source at the paper's standard position.
inline sparse::SparseTimeSeries make_source(const grid::Extents3& e, int nt,
                                            double dt, double f0 = 0.010) {
  sparse::SparseTimeSeries src(sparse::single_center_source(e), nt);
  src.broadcast_signature(sparse::ricker(nt, dt, f0));
  return src;
}

/// The standard receiver line used across experiments.
inline sparse::SparseTimeSeries make_receivers(const grid::Extents3& e,
                                               int nt, int n = 128) {
  return sparse::SparseTimeSeries(sparse::receiver_line(e, n), nt);
}

/// Measure one (propagator, schedule) case: run *every* repetition (the
/// legacy best_of() short-circuited bookkeeping and lost the rep list),
/// record each rep's wall time plus trace-counter and PMU deltas into the
/// session's case list, and return the recorded CaseResult. Headline
/// number is min_s(); median_s() and the full rep vector ride in --json.
template <typename Propagator>
CaseResult& measure(Session& session, std::string name,
                    std::map<std::string, std::string> tags,
                    Propagator& prop, physics::Schedule sched,
                    const sparse::SparseTimeSeries& src,
                    sparse::SparseTimeSeries* rec, int reps) {
  CaseResult c = measure_case(session, std::move(name), std::move(tags),
                              reps, [&] { return prop.run(sched, src, rec); });
  return session.add_case(std::move(c));
}

inline void emit(const util::Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print_ascii(std::cout);
  }
}

}  // namespace bench
