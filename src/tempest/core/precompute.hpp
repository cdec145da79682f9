#pragma once

#include <vector>

#include "tempest/config.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/util/align.hpp"

namespace tempest::core {

/// Steps 1–2 of the paper's precomputation (Listing 2, Fig. 5b/5c) without
/// the dense volumes: the grid points a sparse set's interpolation supports
/// touch, each with a unique ascending id, and per point the (site, weight)
/// pairs that reach it. The one implementation of the probe rule:
///  * the support points of every site are stable-sorted by x-major key;
///  * each point's weights are summed in real_t in the original (site,
///    support) order — exactly the value the probe grid of Listing 2 holds
///    after injecting unit amplitudes;
///  * with `drop_zero_sums`, points whose sum is zero are dropped (the
///    probe leaves them at zero, so they are not "affected");
///  * ids ascend in x-major order (the paper's Fig. 5c numbering).
/// Cost O(nx*ny + support points): no grid-sized buffer is allocated.
struct AffectedPoints {
  struct Pair {
    int site = 0;  ///< source or receiver index
    real_t weight = 0;
  };
  int npts = 0;
  std::vector<CompressedSparse::Point> points;  ///< points[id], x-major
  /// CSR over ids: pairs[offsets[id]..offsets[id+1]).
  std::vector<int> offsets;
  std::vector<Pair> pairs;  ///< (site, support) order within each id
  /// Grid points dropped because their probe sum was zero.
  int dropped = 0;
};

[[nodiscard]] AffectedPoints affected_points(
    const grid::Extents3& extents, const sparse::SparseTimeSeries& sites,
    sparse::InterpKind kind, bool drop_zero_sums);

/// The dense view of the source side's affected points: a binary *source
/// mask* SM and a *source id* volume SID (Fig. 5b/5c). The engine never
/// builds these; benches and tests that inspect the volumes do.
struct SourceMasks {
  grid::Grid3<unsigned char> sm;  ///< 1 where some source touches the point
  grid::Grid3<int> sid;           ///< unique ascending id, or -1
  int npts = 0;                   ///< number of affected points

  [[nodiscard]] const grid::Extents3& extents() const { return sm.extents(); }
};

/// affected_points(drop_zero_sums = true) written out as SM/SID: the grid
/// points Listing 2's unit-amplitude probe leaves non-zero.
[[nodiscard]] SourceMasks build_source_masks(const grid::Extents3& extents,
                                             const sparse::SparseTimeSeries& src,
                                             sparse::InterpKind kind);

/// Step 3 (Listing 3, Fig. 5d): the decomposed, grid-aligned source
/// wavefields. src_dcmp[t][id] accumulates w_{s,p} * src[t][s] over every
/// source s whose support contains affected point p. After decomposition the
/// off-the-grid sources are equivalent to `npts` point sources sitting
/// exactly on grid points.
class DecomposedSource {
 public:
  DecomposedSource() = default;
  DecomposedSource(int nt, int npts)
      : nt_(nt),
        npts_(npts),
        data_(static_cast<std::size_t>(nt) * static_cast<std::size_t>(npts),
              real_t{0}) {}

  [[nodiscard]] int nt() const { return nt_; }
  [[nodiscard]] int npts() const { return npts_; }

  [[nodiscard]] real_t& at(int t, int id) {
    return data_[static_cast<std::size_t>(t) *
                     static_cast<std::size_t>(npts_) +
                 static_cast<std::size_t>(id)];
  }
  [[nodiscard]] real_t at(int t, int id) const {
    return data_[static_cast<std::size_t>(t) *
                     static_cast<std::size_t>(npts_) +
                 static_cast<std::size_t>(id)];
  }

  /// Raw time-major view (nt x npts) for generated-code consumers; null
  /// when there are no affected points.
  [[nodiscard]] const real_t* data() const {
    return data_.empty() ? nullptr : data_.data();
  }

 private:
  int nt_ = 0;
  int npts_ = 0;
  util::aligned_vector<real_t> data_;
};

/// The decomposition over the engine's affected points (built from `src`
/// with drop_zero_sums). Throws if any point was dropped: its weights have
/// no id to go to, and the dense pipeline throws there too.
[[nodiscard]] DecomposedSource decompose_sources(
    const AffectedPoints& points, const sparse::SparseTimeSeries& src);

/// The same, with ids read from dense masks: every support point of `src`
/// must be present in them.
[[nodiscard]] DecomposedSource decompose_sources(
    const SourceMasks& masks, const sparse::SparseTimeSeries& src,
    sparse::InterpKind kind);

/// Receiver-side analog of the decomposition: measurement interpolation is a
/// *gather*, so instead of per-point wavefields we precompute, per affected
/// grid point, the list of (receiver, weight) pairs it contributes to. The
/// fused kernel then accumulates rec[t][r] += w * u(t, point) as the
/// wave-front sweeps the point's column. That list is exactly
/// affected_points(drop_zero_sums = false) of the receivers (every touched
/// point counts); this struct adds its dense view.
struct DecomposedReceivers : AffectedPoints {
  grid::Grid3<unsigned char> rm;  ///< binary receiver mask
  grid::Grid3<int> rid;           ///< unique ascending id, or -1

  [[nodiscard]] const grid::Extents3& extents() const { return rm.extents(); }
};

[[nodiscard]] DecomposedReceivers decompose_receivers(
    const grid::Extents3& extents, const sparse::SparseTimeSeries& rec,
    sparse::InterpKind kind);

/// Everything the fused operators read (Listing 6): the compressed source
/// columns and their decomposed wavefields, and — when there are receivers
/// — the compressed receiver columns with their (receiver, weight) lists.
/// Built from the supports alone, so no grid-sized buffer is allocated.
struct FusedOperands {
  CompressedSparse cs_src;
  DecomposedSource dcmp;
  AffectedPoints rec;
  CompressedSparse cs_rec;
};

/// The temporally blocked schedules' precompute; `rec` may be null.
[[nodiscard]] FusedOperands precompute_fused(
    const grid::Extents3& extents, const sparse::SparseTimeSeries& src,
    const sparse::SparseTimeSeries* rec, sparse::InterpKind kind);

}  // namespace tempest::core
