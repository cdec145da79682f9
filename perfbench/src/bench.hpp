#pragma once

// The parts of the tempest benchmark that its test exercises as well: the
// output checks that decide whether a shot failed, the order statistics the
// reported metrics are taken with, and the span recorder of the traced run.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "tempest/grid/grid3.hpp"
#include "tempest/jobs/report.hpp"
#include "tempest/sparse/series.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shots attempted and failed in one run.
struct Tally {
  long long attempted = 0;
  long long failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  }
};

struct GatherCheck {
  bool ok = false;
  double max_abs_diff = 0.0;
  double max_ref = 0.0;      ///< max|ref|, the tolerance's base
  long long mismatched = 0;  ///< samples outside the tolerance
  long long inexact = 0;     ///< samples whose bits differ
};

/// Tolerance for a gather recorded under another schedule. The
/// space-blocked schedule interpolates each receiver in double from its
/// support points; the fused path of the wavefront and diamond schedules
/// accumulates the same products in float, in affected-point order. Over
/// trilinear supports (8 weights summing to 1) the two differ by a few
/// float roundings, although the wavefields they sample are bitwise equal:
/// relative to the gather's peak while it is a normal float, and by whole
/// subnormal units (one per product and per addition at most) where the
/// samples underflow, as they do before the first arrival.
inline constexpr double kCrossScheduleGatherTol =
    16.0 * std::numeric_limits<float>::epsilon();
inline constexpr double kUnderflowGatherTol =
    8.0 * std::numeric_limits<float>::denorm_min();

/// Compare a gather with its reference sample by sample: equal bit
/// patterns when rel_tol == 0, otherwise |got - ref| <= max(rel_tol *
/// max|ref|, kUnderflowGatherTol) (NaN never passes). Gathers of different
/// shape never pass.
[[nodiscard]] inline GatherCheck compare_gathers(
    const tempest::sparse::SparseTimeSeries& got,
    const tempest::sparse::SparseTimeSeries& ref, double rel_tol) {
  static_assert(sizeof(tempest::real_t) == sizeof(std::uint32_t));
  GatherCheck c;
  if (got.nt() != ref.nt() || got.npoints() != ref.npoints()) return c;
  for (int t = 0; t < ref.nt(); ++t) {
    for (const tempest::real_t v : ref.step(t)) {
      c.max_ref = std::max(c.max_ref, std::fabs(static_cast<double>(v)));
    }
  }
  const double tol = std::max(rel_tol * c.max_ref, kUnderflowGatherTol);
  for (int t = 0; t < ref.nt(); ++t) {
    const auto a = got.step(t);
    const auto b = ref.step(t);
    for (std::size_t p = 0; p < a.size(); ++p) {
      const double diff = std::fabs(static_cast<double>(a[p]) - b[p]);
      c.max_abs_diff = std::max(c.max_abs_diff, diff);
      const bool identical = std::bit_cast<std::uint32_t>(a[p]) ==
                             std::bit_cast<std::uint32_t>(b[p]);
      if (!identical) ++c.inexact;
      if (rel_tol == 0.0 ? !identical : !(diff <= tol)) ++c.mismatched;
    }
  }
  c.ok = c.mismatched == 0;
  return c;
}

/// FNV-1a digest of a field's interior bits, so a shot's final
/// wavefield can be checked bitwise against its reference without keeping
/// the field.
[[nodiscard]] inline std::uint64_t field_digest(
    const tempest::grid::Grid3<tempest::real_t>& f) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const tempest::grid::Extents3& e = f.extents();
  for (int x = 0; x < e.nx; ++x) {
    for (int y = 0; y < e.ny; ++y) {
      const tempest::real_t* row = &f(x, y, 0);
      for (int z = 0; z < e.nz; ++z) {
        h = (h ^ std::bit_cast<std::uint32_t>(row[z])) * 0x100000001b3ULL;
      }
    }
  }
  return h;
}

/// A survey shot passes only when it finished Done on the requested rung
/// (level 0) at its first attempt: a retry, a degrade or a quarantine is a
/// failure users would see as lost throughput or a different schedule.
[[nodiscard]] inline bool survey_shot_ok(
    const tempest::jobs::ShotReport& s) {
  return s.state == "done" && s.level == 0 && !s.degraded && s.attempts == 1;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile that still has at least ten samples above it:
/// with n sorted samples, the (n-10)-th smallest, at percentile
/// 100 * (n - 10) / n. Absent (found == false) below eleven samples.
struct TailPercentile {
  bool found = false;
  double percentile = 0.0;
  double value = 0.0;
};

[[nodiscard]] inline TailPercentile tail_percentile(std::vector<double> v) {
  TailPercentile p;
  const std::size_t n = v.size();
  if (n < 11) return p;
  std::sort(v.begin(), v.end());
  p.found = true;
  p.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  p.value = v[n - 11];
  return p;
}

/// In-memory spans of the benchmark's own calls into each layer, written
/// as Chrome trace_event JSON when the run ends (Perfetto loads it next to
/// the program's own --trace output). Single-threaded: the benchmark makes
/// its calls from one thread, so a stack of open spans gives the parent.
/// A disabled recorder keeps nothing.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  ///< -1: top level
    int shot = -1;    ///< spans of one shot share this id; -1: no shot
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  void set_shot(int shot) { shot_ = shot; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// RAII span; a no-op on a disabled recorder.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name) : rec_(rec) {
      if (!rec_.enabled_) return;
      index_ = static_cast<int>(rec_.spans_.size());
      Span s;
      s.name = std::move(name);
      s.id = index_;
      s.parent = rec_.open_.empty() ? -1 : rec_.open_.back();
      s.shot = rec_.shot_;
      s.start_ns = rec_.now_ns();
      rec_.spans_.push_back(std::move(s));
      rec_.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      rec_.spans_[static_cast<std::size_t>(index_)].end_ns = rec_.now_ns();
      rec_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_ = -1;
  };

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 1, \"ts\": "
         << static_cast<double>(s.start_ns) / 1e3
         << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"shot\": " << s.shot << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  int shot_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Run `fn` inside a span named `name` and return its wall time (s).
template <typename Fn>
double timed(SpanRecorder& rec, const char* name, Fn&& fn) {
  const SpanRecorder::Scope span(rec, name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

}  // namespace perfbench
