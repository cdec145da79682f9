#include "tempest/analysis/statics/interference.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

namespace tempest::analysis::statics {

namespace {

/// One concrete footprint box: a circular-buffer slot and an x/y range
/// (z is never tiled, so it never separates tasks and is omitted).
struct Box {
  int slot = 0;
  int x0 = 0, x1 = 0;  ///< [x0, x1)
  int y0 = 0, y1 = 0;
  int t = 0;        ///< substep, for diagnostics
  bool read = false;

  [[nodiscard]] bool overlaps(const Box& o) const {
    return slot == o.slot && x0 < o.x1 && o.x0 < x1 && y0 < o.y1 &&
           o.y0 < y1;
  }

  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    os << (read ? "reads" : "writes") << " slot " << slot << " x[" << x0
       << "," << x1 << ") y[" << y0 << "," << y1 << ") at substep t=" << t;
    return os.str();
  }
};

/// One task's enumerated footprints and the x-y bounding box of all of
/// them (inverted, so it meets nothing, for a task that computes nothing).
struct TaskBoxes {
  std::vector<Box> writes;
  std::vector<Box> reads;
  int x0 = std::numeric_limits<int>::max();
  int x1 = std::numeric_limits<int>::min();
  int y0 = std::numeric_limits<int>::max();
  int y1 = std::numeric_limits<int>::min();

  void add(std::vector<Box>& to, const Box& b) {
    to.push_back(b);
    x0 = std::min(x0, b.x0);
    x1 = std::max(x1, b.x1);
    y0 = std::min(y0, b.y0);
    y1 = std::max(y1, b.y1);
  }

  [[nodiscard]] bool may_touch(const TaskBoxes& o) const {
    return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
  }
};

/// Circular-buffer slots the footprint's slice offsets span (a kernel
/// reading no slice still owns the one it updates from).
int slot_count(const Footprint& fp) {
  int lo = fp.write_dt;
  int hi = fp.write_dt;
  for (int k : fp.time_reads.empty() ? std::vector<int>{0} : fp.time_reads) {
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  return hi - lo + 1;
}

/// The write at slot t+write_dt over each rect, the stencil reads over the
/// rect grown by the halo radius, and (with receivers) the fused gather's
/// in-rect read of the freshly written slice.
TaskBoxes footprint_of(const core::PlanTask& task, const Footprint& fp,
                       int slots) {
  const auto slot = [slots](int t) { return ((t % slots) + slots) % slots; };
  const int r = fp.radius;
  TaskBoxes out;
  for (const core::ScheduleOp& op : task.ops) {
    const int x0 = op.box.x.lo, x1 = op.box.x.hi;
    const int y0 = op.box.y.lo, y1 = op.box.y.hi;
    const int t = op.t;
    out.add(out.writes, {slot(t + fp.write_dt), x0, x1, y0, y1, t, false});
    for (int k : fp.time_reads) {
      out.add(out.reads,
              {slot(t + k), x0 - r, x1 + r, y0 - r, y1 + r, t, true});
    }
    if (fp.receivers) {
      out.add(out.reads, {slot(t + fp.write_dt), x0, x1, y0, y1, t, true});
    }
  }
  return out;
}

/// ancestors[v] has bit u set iff the DAG has a path u -> v. Edges always
/// point from a lower to a higher node, so one ascending pass suffices.
std::vector<std::vector<std::uint64_t>> ancestors(const util::TaskDag& dag) {
  const std::size_t words = static_cast<std::size_t>(dag.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> anc(
      static_cast<std::size_t>(dag.size()),
      std::vector<std::uint64_t>(words, 0));
  for (int v = 0; v < dag.size(); ++v) {
    auto& mine = anc[static_cast<std::size_t>(v)];
    for (int p : dag.preds(v)) {
      const auto& theirs = anc[static_cast<std::size_t>(p)];
      for (std::size_t w = 0; w < words; ++w) mine[w] |= theirs[w];
      mine[static_cast<std::size_t>(p) / 64] |= std::uint64_t{1} << (p % 64);
    }
  }
  return anc;
}

Diagnostic conflict_diag(const std::string& where, const core::PlanTask& a,
                         const Box& wa, const core::PlanTask& b,
                         const Box& fb) {
  Diagnostic d;
  d.severity = Diagnostic::Severity::Error;
  d.code = "tile-interference";
  d.message = where + ": " + a.label + " and " + b.label +
              " have no path in the band DAG, but " + a.label + " " +
              wa.str() + " while " + b.label + " " + fb.str() +
              " — concurrent tasks touch the same cells";
  return d;
}

}  // namespace

core::BandPlan plan_for(const ScheduleDescriptor& sched,
                        const grid::Extents3& e, const core::TileSpec& tiles,
                        int s_begin, int s_end) {
  core::TileSpec spec = tiles;
  spec.tile_t = std::max(1, sched.tile_t);
  switch (sched.kind) {
    case SchedKind::Reference:
      // One serial whole-domain sweep per substep.
      spec.block_x = e.nx;
      spec.block_y = e.ny;
      return core::BandPlan::space_blocked(e, s_begin, s_end, spec);
    case SchedKind::SpaceBlocked:
      return core::BandPlan::space_blocked(e, s_begin, s_end, spec);
    case SchedKind::Fused:
      spec.tile_t = 1;
      return core::BandPlan::wavefront(e, s_begin, s_end, sched.slope, spec);
    case SchedKind::Wavefront:
      return core::BandPlan::wavefront(e, s_begin, s_end, sched.slope, spec);
    case SchedKind::Diamond:
      spec.tile_x = core::BandPlan::diamond_width(tiles.tile_x, sched.slope,
                                                  spec.tile_t);
      return core::BandPlan::diamond(e, s_begin, s_end, sched.slope, spec);
  }
  TEMPEST_REQUIRE_MSG(false, "unknown schedule family");
  return {};
}

Footprint Footprint::from_summary(const AccessSummary& summary,
                                  bool receivers) {
  Footprint fp;
  fp.radius = summary.radius;
  fp.write_dt = 1;
  fp.time_reads = summary.time_reads;
  fp.receivers = receivers;
  return fp;
}

std::string InterferenceReport::str() const {
  std::ostringstream os;
  os << "interference[" << plan << "]: " << tasks << " task(s), "
     << unordered_pairs << " unordered pair(s), " << conflicts
     << " conflict(s) -> "
     << (race_free() ? "race-free" : "INTERFERENCE");
  for (const Diagnostic& d : diagnostics) os << "\n  " << d.str();
  return os.str();
}

InterferenceReport prove_race_free(const core::BandPlan& plan,
                                   const Footprint& footprint) {
  InterferenceReport report;
  report.plan = plan.str();
  const int slots = slot_count(footprint);

  constexpr int kMaxDiagnostics = 6;
  for (const core::Band& band : plan.bands) {
    const std::size_t n = band.tasks.size();
    report.tasks += static_cast<int>(n);
    std::vector<TaskBoxes> boxes;
    boxes.reserve(n);
    for (const core::PlanTask& task : band.tasks) {
      boxes.push_back(footprint_of(task, footprint, slots));
    }
    const auto anc = ancestors(band.dag);
    const std::string where = report.plan + " band [" +
                              std::to_string(band.s_begin) + "," +
                              std::to_string(band.s_end) + ")";
    for (std::size_t bi = 1; bi < n; ++bi) {
      for (std::size_t ai = 0; ai < bi; ++ai) {
        if ((anc[bi][ai / 64] >> (ai % 64)) & 1u) continue;  // a -> b
        ++report.unordered_pairs;
        const TaskBoxes& fa = boxes[ai];
        const TaskBoxes& fb = boxes[bi];
        if (!fa.may_touch(fb)) continue;
        const core::PlanTask& a = band.tasks[ai];
        const core::PlanTask& b = band.tasks[bi];
        const auto found = [&](const core::PlanTask& w, const Box& wb,
                               const core::PlanTask& o, const Box& ob) {
          ++report.conflicts;
          if (report.conflicts <= kMaxDiagnostics) {
            report.diagnostics.push_back(conflict_diag(where, w, wb, o, ob));
          }
        };
        // The proof obligation: writes of either task disjoint from both
        // the writes and the reads of the other. One diagnostic per
        // pair/obligation is enough — the first overlap names the pair.
        const auto scan = [&](const core::PlanTask& w, const TaskBoxes& fw,
                              const core::PlanTask& o,
                              const std::vector<Box>& other) {
          for (const Box& wb : fw.writes) {
            for (const Box& ob : other) {
              if (wb.overlaps(ob)) {
                found(w, wb, o, ob);
                return;
              }
            }
          }
        };
        scan(a, fa, b, fb.writes);  // write/write (symmetric, check once)
        scan(a, fa, b, fb.reads);   // a writes what b reads
        scan(b, fb, a, fa.reads);   // b writes what a reads
      }
    }
  }
  if (report.conflicts > kMaxDiagnostics) {
    Diagnostic d;
    d.severity = Diagnostic::Severity::Note;
    d.code = "tile-interference";
    d.message = "... and " +
                std::to_string(report.conflicts - kMaxDiagnostics) +
                " further conflicting pair(s) suppressed";
    report.diagnostics.push_back(std::move(d));
  }
  if (report.race_free()) {
    Diagnostic d;
    d.severity = Diagnostic::Severity::Note;
    d.code = "race-free";
    d.message = std::to_string(report.tasks) + " task(s), " +
                std::to_string(report.unordered_pairs) +
                " unordered pair(s): all write/write and write/read "
                "footprints disjoint";
    report.diagnostics.push_back(std::move(d));
  }
  return report;
}

namespace {

std::string interference_message(const InterferenceReport& report) {
  std::ostringstream os;
  os << "tile-interference: " << report.conflicts
     << " unordered tile pair(s) with overlapping footprints under "
     << report.plan << "\n"
     << report.str();
  return os.str();
}

}  // namespace

TileInterferenceError::TileInterferenceError(InterferenceReport report)
    : util::PreconditionError(interference_message(report)),
      report_(std::move(report)) {}

void require_race_free(const InterferenceReport& report) {
  if (!report.race_free()) throw TileInterferenceError(report);
}

}  // namespace tempest::analysis::statics
