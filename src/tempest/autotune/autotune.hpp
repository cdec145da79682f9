#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tempest/core/band_plan.hpp"
#include "tempest/grid/extents.hpp"
#include "tempest/perf/pmu.hpp"
#include "tempest/perf/report.hpp"

namespace tempest::autotune {

/// One evaluated tile/block configuration.
struct Candidate {
  core::TileSpec spec;
  double seconds = 0.0;  ///< measured propagation wall time
  bool failed = false;   ///< trial threw, or timed non-finite/negative
  std::string error;     ///< why it failed (exception message or diagnosis)
  /// Hardware-counter delta accumulated over this candidate's trial reps
  /// (zeroed-but-flagged when the PMU is unavailable). Explains *why* a
  /// tile shape wins — e.g. the best shape should show the lowest
  /// LLC-miss traffic per trial, the mechanism Table I rests on.
  perf::pmu::Sample pmu{};
};

/// Outcome of a sweep: every evaluated candidate plus the fastest one.
struct SweepResult {
  Candidate best;
  std::vector<Candidate> evaluated;
};

/// Candidate-generation controls, mirroring the paper's Table I search
/// space: tile_x/tile_y in {32..256}, block_x/block_y in {4..16}, plus the
/// temporal tile height. `symmetric` restricts to tile_x == tile_y and
/// block_x == block_y (the shape almost all of Table I's optima take),
/// shrinking the sweep for quick runs; the full sweep enumerates asymmetric
/// combinations exactly as the paper's exhaustive search does.
struct CandidateSpace {
  std::vector<int> tile_sizes{32, 64, 128, 256};
  std::vector<int> block_sizes{4, 8, 16};
  std::vector<int> tile_t{8};
  bool symmetric = true;
  /// Worker counts for the task-parallel executor (the thread dimension of
  /// the sweep). Only run_candidates() consumes it; the tile-only
  /// candidates() ignores it so existing single-thread sweeps are
  /// unchanged. 0 entries mean "the resolved default"
  /// (util::resolve_threads).
  std::vector<int> threads{1};
};

/// Enumerate candidate tile specs, dropping shapes larger than the domain
/// (a tile wider than the grid duplicates an existing candidate's behaviour)
/// and blocks larger than their tile.
[[nodiscard]] std::vector<core::TileSpec> candidates(
    const grid::Extents3& extents, const CandidateSpace& space);

/// Measure every candidate with `measure` (returning seconds; lower is
/// better) and return the full record. `repeats` takes the best of N per
/// candidate to suppress timer noise.
///
/// A sweep is only as robust as its worst trial: a candidate whose measure
/// call throws, or that reports a NaN/Inf/negative time, is recorded with
/// `failed = true` and its `error` set, then skipped when picking `best` —
/// one pathological tile shape must not abort an hour-long sweep. Throws
/// PreconditionError only when *every* candidate fails, with the first
/// failure's message for diagnosis.
[[nodiscard]] SweepResult sweep(
    const std::vector<core::TileSpec>& specs,
    const std::function<double(const core::TileSpec&)>& measure,
    int repeats = 1);

/// One point of the *parallel* search space: a tile shape plus the worker
/// count the task-parallel executor runs it under.
struct RunConfig {
  core::TileSpec spec{};
  int threads = 1;

  friend bool operator==(const RunConfig&, const RunConfig&) = default;
  [[nodiscard]] std::string str() const;
};

/// The cross product of candidates(extents, space) with space.threads —
/// the full (tile shape, thread count) lattice the parallel sweep walks.
/// Thread counts are deduplicated and kept in declaration order; tile
/// shapes vary fastest so same-thread configs are adjacent (one executor
/// warm-up per thread count).
[[nodiscard]] std::vector<RunConfig> run_candidates(
    const grid::Extents3& extents, const CandidateSpace& space);

/// One evaluated (tile, threads) configuration.
struct RunCandidate {
  RunConfig config{};
  double seconds = 0.0;
  bool failed = false;
  std::string error;
  perf::pmu::Sample pmu{};
};

struct RunSweepResult {
  RunCandidate best;
  std::vector<RunCandidate> evaluated;
};

/// sweep() over the parallel search space: same robustness contract
/// (failed trials are recorded and skipped; throws only when every config
/// fails).
[[nodiscard]] RunSweepResult sweep_runs(
    const std::vector<RunConfig>& configs,
    const std::function<double(const RunConfig&)>& measure, int repeats = 1);

/// Measured-vs-modelled thread-scaling verdicts for a finished parallel
/// sweep, one per multi-thread candidate. The model is the null hypothesis
/// of ideal strong scaling capped by the machine: for a config with N
/// threads and the *same tile shape* measured at 1 thread in t1 seconds,
/// modelled time = t1 / min(N, hw_threads). The comparison reuses the
/// loose log-ratio bands of perf::validate_traffic (predicted/measured
/// carried in seconds): Pass within warn_ratio, Warn beyond it (sublinear
/// scaling — expected when oversubscribed or bandwidth-bound), Fail
/// beyond fail_ratio (a *slowdown* that big means the task graph
/// serialized or thrashed), Unavailable when the sweep holds no 1-thread
/// baseline for that tile shape. `hw_threads` <= 0 means "ask the
/// machine" (std::thread::hardware_concurrency).
[[nodiscard]] std::vector<perf::TrafficValidation> validate_scaling(
    const RunSweepResult& result, int hw_threads = 0);

}  // namespace tempest::autotune
