#include "tempest/core/band_plan.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "tempest/util/error.hpp"

namespace tempest::core {

namespace {

std::string lattice_label(const char* kind, int i, int j) {
  return std::string(kind) + "(" + std::to_string(i) + "," +
         std::to_string(j) + ")";
}

/// Append the op for substep s over the rect clipped to the domain.
void emit(PlanTask& task, const grid::Extents3& e, int s, grid::Range x,
          grid::Range y) {
  const grid::Range xr = grid::intersect(x, grid::Range{0, e.nx});
  const grid::Range yr = grid::intersect(y, grid::Range{0, e.ny});
  if (xr.empty() || yr.empty()) return;
  task.ops.push_back({s, grid::Box3{xr, yr, {0, e.nz}}});
}

}  // namespace

BandPlan BandPlan::space_blocked(const grid::Extents3& e, int s_begin,
                                 int s_end, const TileSpec& spec) {
  TEMPEST_REQUIRE(spec.block_x > 0 && spec.block_y > 0);
  BandPlan plan;
  plan.family = Family::SpaceBlocked;
  plan.spec = spec;
  const std::vector<grid::Box3> blocks =
      grid::decompose_xy(grid::Box3::whole(e), spec.block_x, spec.block_y);
  for (int s = s_begin; s < s_end; ++s) {
    Band band{s, s + 1, {}, util::TaskDag(static_cast<int>(blocks.size()))};
    band.tasks.reserve(blocks.size());
    for (const grid::Box3& b : blocks) {
      band.tasks.push_back({lattice_label("block", b.x.lo / spec.block_x,
                                          b.y.lo / spec.block_y),
                            {{s, b}}});
    }
    plan.bands.push_back(std::move(band));
  }
  return plan;
}

BandPlan BandPlan::wavefront(const grid::Extents3& e, int s_begin, int s_end,
                             int slope, const TileSpec& spec) {
  TEMPEST_REQUIRE(spec.valid());
  TEMPEST_REQUIRE_MSG(slope >= 0, "skew slope must be non-negative");
  BandPlan plan;
  plan.family = Family::Wavefront;
  plan.slope = slope;
  plan.spec = spec;
  for (int tt = s_begin; tt < s_end; tt += spec.tile_t) {
    const int te = std::min(tt + spec.tile_t, s_end);
    // Skewed coordinates of points alive in this band span
    // [slope*tt, extent + slope*(te-1)).
    const int xs_begin = (slope * tt) / spec.tile_x * spec.tile_x;
    const int ys_begin = (slope * tt) / spec.tile_y * spec.tile_y;
    const int ni =
        (e.nx + slope * (te - 1) - xs_begin + spec.tile_x - 1) / spec.tile_x;
    const int nj =
        (e.ny + slope * (te - 1) - ys_begin + spec.tile_y - 1) / spec.tile_y;
    Band band{tt, te, {}, util::TaskDag(ni * nj)};
    band.tasks.reserve(static_cast<std::size_t>(ni * nj));
    for (int ix = 0; ix < ni; ++ix) {
      for (int iy = 0; iy < nj; ++iy) {
        PlanTask task{lattice_label("tile", ix, iy), {}};
        const int xs = xs_begin + ix * spec.tile_x;
        const int ys = ys_begin + iy * spec.tile_y;
        for (int t = tt; t < te; ++t) {
          emit(task, e, t, {xs - slope * t, xs + spec.tile_x - slope * t},
               {ys - slope * t, ys + spec.tile_y - slope * t});
        }
        band.tasks.push_back(std::move(task));
        // The staircase generating set: the transitive reduction of the
        // tile dependences, at most two predecessors per task.
        const int node = ix * nj + iy;
        if (ix > 0) band.dag.add_edge(node - nj, node);
        if (iy > 0) band.dag.add_edge(node - 1, node);
      }
    }
    plan.bands.push_back(std::move(band));
  }
  return plan;
}

int BandPlan::diamond_width(int tile_x, int slope, int height) {
  return std::max(tile_x, 2 * slope * height);
}

BandPlan BandPlan::diamond(const grid::Extents3& e, int s_begin, int s_end,
                           int slope, const TileSpec& spec) {
  TEMPEST_REQUIRE(spec.valid());
  TEMPEST_REQUIRE(slope >= 0);
  TEMPEST_REQUIRE_MSG(spec.tile_x >= 2 * slope * spec.tile_t,
                      "diamond width must be >= 2*slope*height");
  BandPlan plan;
  plan.family = Family::Diamond;
  plan.slope = slope;
  plan.spec = spec;
  const int w = spec.tile_x;
  // Peak bases -W, 0, W, ... < nx + W.
  const int periods = (e.nx + 3 * w - 1) / w;
  const grid::Range all_y{0, e.ny};
  for (int t0 = s_begin; t0 < s_end; t0 += spec.tile_t) {
    const int te = std::min(t0 + spec.tile_t, s_end);
    Band band{t0, te, {}, util::TaskDag(2 * periods)};
    band.tasks.reserve(static_cast<std::size_t>(2 * periods));
    for (int k = 0; k < periods; ++k) {
      const int base = -w + k * w;
      PlanTask peak{"peak(" + std::to_string(k) + ")", {}};
      for (int t = t0; t < te; ++t) {
        const int shrink = slope * (t - t0);
        emit(peak, e, t, {base + shrink, base + w - shrink}, all_y);
      }
      band.tasks.push_back(std::move(peak));
    }
    for (int k = 0; k < periods; ++k) {
      const int base = -w + k * w;
      PlanTask valley{"valley(" + std::to_string(k) + ")", {}};
      for (int t = t0 + 1; t < te; ++t) {  // zero-width at the band start
        const int grow = slope * (t - t0);
        emit(valley, e, t, {base + w - grow, base + w + grow}, all_y);
      }
      band.tasks.push_back(std::move(valley));
      // Valley k reads only inside peaks k and k+1 (W >= 2*slope*height).
      band.dag.add_edge(k, periods + k);
      if (k + 1 < periods) band.dag.add_edge(k + 1, periods + k);
    }
    plan.bands.push_back(std::move(band));
  }
  return plan;
}

std::vector<ScheduleOp> BandPlan::serial_ops() const {
  std::vector<ScheduleOp> ops;
  for (const Band& band : bands) {
    for (const PlanTask& task : band.tasks) {
      for (const ScheduleOp& op : task.ops) {
        for (const grid::Box3& b :
             grid::decompose_xy(op.box, spec.block_x, spec.block_y)) {
          ops.push_back({op.t, b});
        }
      }
    }
  }
  return ops;
}

long long BandPlan::nonempty_tasks() const {
  long long n = 0;
  for (const Band& band : bands) {
    for (const PlanTask& task : band.tasks) n += task.ops.empty() ? 0 : 1;
  }
  return n;
}

std::string BandPlan::str() const {
  std::ostringstream os;
  switch (family) {
    case Family::SpaceBlocked: os << "space-blocked("; break;
    case Family::Wavefront:
      os << "wavefront(slope=" << slope << ", tile_t=" << spec.tile_t
         << ", tile=" << spec.tile_x << "x" << spec.tile_y << ", ";
      break;
    case Family::Diamond:
      os << "diamond(slope=" << slope << ", height=" << spec.tile_t
         << ", width=" << spec.tile_x << ", ";
      break;
  }
  os << "block=" << spec.block_x << "x" << spec.block_y << ")";
  return os.str();
}

std::string validate_schedule(const grid::Extents3& e, int t_begin, int t_end,
                              int radius,
                              const std::vector<ScheduleOp>& ops) {
  // Sequence number of the op computing (t, x, y); ops always span full z,
  // so the check runs on x–y columns. -1 = not yet computed.
  const int nt = t_end - t_begin;
  if (nt <= 0) return ops.empty() ? "" : "ops scheduled for empty time range";
  const std::size_t plane = static_cast<std::size_t>(e.nx) *
                            static_cast<std::size_t>(e.ny);
  std::vector<long> seq(static_cast<std::size_t>(nt) * plane, -1);
  auto slot = [&](int t, int x, int y) -> long& {
    return seq[static_cast<std::size_t>(t - t_begin) * plane +
               static_cast<std::size_t>(x) * static_cast<std::size_t>(e.ny) +
               static_cast<std::size_t>(y)];
  };

  std::ostringstream err;

  // Pass 1: coverage and uniqueness.
  long n = 0;
  for (const ScheduleOp& op : ops) {
    if (op.t < t_begin || op.t >= t_end) {
      err << "op " << n << " has timestep " << op.t << " outside ["
          << t_begin << ", " << t_end << ")";
      return err.str();
    }
    if (op.box.z != grid::Range{0, e.nz}) {
      err << "op " << n << " does not span the full z extent";
      return err.str();
    }
    for (int x = op.box.x.lo; x < op.box.x.hi; ++x) {
      for (int y = op.box.y.lo; y < op.box.y.hi; ++y) {
        long& s = slot(op.t, x, y);
        if (s != -1) {
          err << "point (t=" << op.t << ", x=" << x << ", y=" << y
              << ") computed twice (ops " << s << " and " << n << ")";
          return err.str();
        }
        s = n;
      }
    }
    ++n;
  }
  for (int t = t_begin; t < t_end; ++t) {
    for (int x = 0; x < e.nx; ++x) {
      for (int y = 0; y < e.ny; ++y) {
        if (slot(t, x, y) == -1) {
          err << "point (t=" << t << ", x=" << x << ", y=" << y
              << ") never computed";
          return err.str();
        }
      }
    }
  }

  // Pass 2: direct flow dependencies. Op (t,p) reads the values produced by
  // ops (t-1, p+d), |d|_inf <= radius, and by op (t-2, p); transitivity of
  // the precedence order then also covers the circular-buffer
  // anti-dependencies (see wavefront_test for the argument spelled out).
  for (int t = t_begin + 1; t < t_end; ++t) {
    for (int x = 0; x < e.nx; ++x) {
      for (int y = 0; y < e.ny; ++y) {
        const long me = slot(t, x, y);
        for (int dx = -radius; dx <= radius; ++dx) {
          const int qx = x + dx;
          if (qx < 0 || qx >= e.nx) continue;
          for (int dy = -radius; dy <= radius; ++dy) {
            const int qy = y + dy;
            if (qy < 0 || qy >= e.ny) continue;
            if (slot(t - 1, qx, qy) >= me) {
              err << "flow dependency violated: (t=" << t << ", x=" << x
                  << ", y=" << y << ") ran before its input (t=" << t - 1
                  << ", x=" << qx << ", y=" << qy << ")";
              return err.str();
            }
          }
        }
        if (t - 2 >= t_begin && slot(t - 2, x, y) >= me) {
          err << "time-order-2 dependency violated at (t=" << t
              << ", x=" << x << ", y=" << y << ")";
          return err.str();
        }
      }
    }
  }
  return "";
}

}  // namespace tempest::core
