#pragma once

// BandPlan — the one space-time tile geometry every schedule family runs
// (paper Listing 6: skewed tiles grouped into time bands). A plan is a list
// of bands executed in sequence with a barrier between them; each band holds
// tasks ordered only by the band's TaskDag, and each task is the list of
// clipped x-y rects (full z) it computes, one per substep. The engine runs a
// plan (engine::run_plan), the statics race prover proves the same plan
// (analysis/statics/interference.hpp), and the cache simulator replays it.
//
// This header includes only grid/ and util/, so analysis/statics can build
// and inspect plans without pulling in the engine.
//
// Families:
//   * space_blocked — one band per substep of mutually unordered
//     block_x x block_y blocks (the paper's baseline, Fig. 4a);
//   * wavefront — the iteration space skewed by `slope` grid points per
//     substep and tiled in (t, x', y'); tile (i, j) waits for (i-1, j) and
//     (i, j-1), whose transitive closure is the componentwise order every
//     legal skewed dependence follows. Fused is wavefront with tile_t = 1;
//   * diamond — x periods of width W >= 2*slope*height; contracting "peak"
//     triangles are mutually independent, each expanding "valley" waits for
//     the two peaks it reads from. y stays unskewed.

#include <string>
#include <vector>

#include "tempest/grid/blocks.hpp"
#include "tempest/grid/extents.hpp"
#include "tempest/util/threads.hpp"

namespace tempest::core {

/// Space–time tile geometry of the temporally blocked schedules (paper
/// Section II.B / Table I). A *tile* spans tile_t timesteps and
/// tile_x × tile_y skewed spatial columns; each timestep slice of a tile is
/// further cut into block_x × block_y space blocks (the unit handed to the
/// kernel). z is never tiled — it is the contiguous SIMD dimension.
struct TileSpec {
  int tile_t = 8;
  int tile_x = 64;
  int tile_y = 64;
  int block_x = 8;
  int block_y = 8;

  [[nodiscard]] bool valid() const {
    return tile_t > 0 && tile_x > 0 && tile_y > 0 && block_x > 0 &&
           block_y > 0;
  }

  friend bool operator==(const TileSpec&, const TileSpec&) = default;
};

/// One scheduled kernel invocation: compute substep `t` over `box`.
struct ScheduleOp {
  int t = 0;
  grid::Box3 box;

  friend bool operator==(const ScheduleOp&, const ScheduleOp&) = default;
};

/// One task of a band: the clipped rect it computes at each substep, in
/// execution order. Substeps whose rect clips to nothing are omitted, so a
/// lattice tile wholly outside the skewed domain is an empty task (kept so
/// the band DAG's ordering still runs through it).
struct PlanTask {
  std::string label;  ///< "block(i,j)", "tile(i,j)", "peak(k)", "valley(k)"
  std::vector<ScheduleOp> ops;
};

/// Substeps [s_begin, s_end): tasks[i] is node i of `dag`. After the band
/// drains, every substep < s_end is fully computed.
struct Band {
  int s_begin = 0;
  int s_end = 0;
  std::vector<PlanTask> tasks;
  util::TaskDag dag;
};

struct BandPlan {
  enum class Family { SpaceBlocked, Wavefront, Diamond };

  Family family = Family::SpaceBlocked;
  int slope = 0;
  /// The geometry the plan was cut with: band height tile_t, tile (or
  /// diamond period) tile_x × tile_y, and the block_x × block_y blocks each
  /// rect is cut into when it runs.
  TileSpec spec{};
  std::vector<Band> bands;

  /// One band per substep of unordered block_x × block_y blocks covering
  /// the domain (only the block sizes of `spec` are read).
  [[nodiscard]] static BandPlan space_blocked(const grid::Extents3& e,
                                              int s_begin, int s_end,
                                              const TileSpec& spec);

  /// Wave-front bands of spec.tile_t substeps, skewed by `slope` per
  /// substep. Tile origins snap to multiples of the tile size so tile
  /// boundaries are stable across bands; task ix*nj + iy is tile (ix, iy).
  [[nodiscard]] static BandPlan wavefront(const grid::Extents3& e,
                                          int s_begin, int s_end, int slope,
                                          const TileSpec& spec);

  /// Diamond bands of spec.tile_t substeps over x periods of width
  /// spec.tile_x, peak bases at -W + k*W. Throws PreconditionError unless
  /// the width covers the band's dependency cone, W >= 2*slope*tile_t.
  /// Tasks [0, periods) are peaks, periods + k is the valley between peak k
  /// and peak k+1.
  [[nodiscard]] static BandPlan diamond(const grid::Extents3& e, int s_begin,
                                        int s_end, int slope,
                                        const TileSpec& spec);

  /// The diamond period the executors use for a requested tile_x: widened
  /// to the band's dependency cone, max(tile_x, 2*slope*height).
  [[nodiscard]] static int diamond_width(int tile_x, int slope, int height);

  /// Every block in the order a one-thread run executes them: bands in
  /// sequence, tasks in ascending node order, substeps in task order, each
  /// rect cut by decompose_xy.
  [[nodiscard]] std::vector<ScheduleOp> serial_ops() const;

  /// Tasks that compute at least one cell.
  [[nodiscard]] long long nonempty_tasks() const;

  /// "wavefront(slope=2, tile_t=8, tile=64x64, block=8x8)"-style summary.
  [[nodiscard]] std::string str() const;
};

/// Check that `ops` is a legal execution order for a stencil with
/// per-substep dependency radius `radius` on extents `e`: every point of
/// every substep is computed exactly once, and when op i computes point
/// (t,p), every point within `radius` of p at t-1 (and p itself at t-2 for
/// the anti-dependency) appears earlier. Returns an empty string when legal,
/// else a description of the first violation. O(volume · nt) — test sizes
/// only.
[[nodiscard]] std::string validate_schedule(
    const grid::Extents3& e, int t_begin, int t_end, int radius,
    const std::vector<ScheduleOp>& ops);

}  // namespace tempest::core
