#include "tempest/core/precompute.hpp"

#include <cstddef>
#include <numeric>

#include "tempest/trace/trace.hpp"
#include "tempest/util/error.hpp"

namespace tempest::core {

namespace {

/// One support point of one site, keyed by its (x, y) column.
struct Touch {
  int column = 0;  ///< x * ny + y
  int z = 0;
  int site = 0;
  real_t weight = 0;
};

/// Every site's support points, stable-sorted by x-major key: a counting
/// sort over the nx*ny columns, then an insertion sort by z inside each
/// (short) column. Both passes keep equal keys in (site, support) order.
std::vector<Touch> sorted_touches(const grid::Extents3& e,
                                  const sparse::SparseTimeSeries& sites,
                                  sparse::InterpKind kind) {
  const int w = sparse::support_width(kind);
  std::vector<Touch> touches;
  touches.reserve(static_cast<std::size_t>(sites.npoints()) * w * w * w);
  for (int s = 0; s < sites.npoints(); ++s) {
    for (const sparse::SupportPoint& p :
         sparse::support(sites.coord(s), kind, e)) {
      touches.push_back({p.x * e.ny + p.y, p.z, s, static_cast<real_t>(p.w)});
    }
  }
  // start[c] = first slot of column c in the sorted order.
  std::vector<std::size_t> start(static_cast<std::size_t>(e.nx) * e.ny + 1);
  for (const Touch& t : touches) {
    ++start[static_cast<std::size_t>(t.column) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<Touch> sorted(touches.size());
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (const Touch& t : touches) {
    sorted[next[static_cast<std::size_t>(t.column)]++] = t;
  }
  for (std::size_t c = 0; c + 1 < start.size(); ++c) {
    for (std::size_t i = start[c] + 1; i < start[c + 1]; ++i) {
      const Touch t = sorted[i];
      std::size_t j = i;
      for (; j > start[c] && sorted[j - 1].z > t.z; --j) {
        sorted[j] = sorted[j - 1];
      }
      sorted[j] = t;
    }
  }
  return sorted;
}

/// src_dcmp[t][id_of(i)] += w * src[t][site] over every pair of point i, in
/// the dense pipeline's accumulation order per cell.
template <typename IdOf>
DecomposedSource accumulate(const AffectedPoints& pts,
                            const sparse::SparseTimeSeries& src, int npts,
                            IdOf&& id_of) {
  TEMPEST_TRACE_SPAN("precompute.decompose", "precompute");
  DecomposedSource dcmp(src.nt(), npts);
  for (int i = 0; i < pts.npts; ++i) {
    const int id = id_of(i);
    for (int k = pts.offsets[static_cast<std::size_t>(i)];
         k < pts.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const AffectedPoints::Pair& pr = pts.pairs[static_cast<std::size_t>(k)];
      for (int t = 0; t < src.nt(); ++t) {
        dcmp.at(t, id) += pr.weight * src.at(t, pr.site);
      }
    }
  }
  return dcmp;
}

/// Write the affected points out as a binary mask and an id volume.
void write_dense(const AffectedPoints& pts, grid::Grid3<unsigned char>& mask,
                 grid::Grid3<int>& ids) {
  for (const CompressedSparse::Point& p : pts.points) {
    mask(p.x, p.y, p.z) = 1;
    ids(p.x, p.y, p.z) = p.id;
  }
}

}  // namespace

AffectedPoints affected_points(const grid::Extents3& extents,
                               const sparse::SparseTimeSeries& sites,
                               sparse::InterpKind kind, bool drop_zero_sums) {
  TEMPEST_TRACE_SPAN("precompute.points", "precompute");
  const std::vector<Touch> sorted = sorted_touches(extents, sites, kind);
  AffectedPoints out;
  out.offsets.push_back(0);
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t end = i;
    real_t probe = 0;
    for (; end < sorted.size() && sorted[end].column == sorted[i].column &&
           sorted[end].z == sorted[i].z;
         ++end) {
      probe += sorted[end].weight;
    }
    if (drop_zero_sums && probe == real_t{0}) {
      ++out.dropped;
    } else {
      out.points.push_back({sorted[i].column / extents.ny,
                            sorted[i].column % extents.ny, sorted[i].z,
                            out.npts++});
      for (std::size_t k = i; k < end; ++k) {
        out.pairs.push_back({sorted[k].site, sorted[k].weight});
      }
      out.offsets.push_back(static_cast<int>(out.pairs.size()));
    }
    i = end;
  }
  return out;
}

SourceMasks build_source_masks(const grid::Extents3& extents,
                               const sparse::SparseTimeSeries& src,
                               sparse::InterpKind kind) {
  TEMPEST_TRACE_SPAN("precompute.masks", "precompute");
  const AffectedPoints pts =
      affected_points(extents, src, kind, /*drop_zero_sums=*/true);
  SourceMasks masks{grid::Grid3<unsigned char>(extents, 0, 0),
                    grid::Grid3<int>(extents, 0, -1), pts.npts};
  write_dense(pts, masks.sm, masks.sid);
  return masks;
}

DecomposedSource decompose_sources(const AffectedPoints& points,
                                   const sparse::SparseTimeSeries& src) {
  TEMPEST_REQUIRE_MSG(points.dropped == 0,
                      "support point not present in probe masks");
  return accumulate(points, src, points.npts, [](int i) { return i; });
}

DecomposedSource decompose_sources(const SourceMasks& masks,
                                   const sparse::SparseTimeSeries& src,
                                   sparse::InterpKind kind) {
  // Listing 3: indirect through SID and scatter every source's wavelet into
  // its per-affected-point wavefields.
  const AffectedPoints touched =
      affected_points(masks.extents(), src, kind, /*drop_zero_sums=*/false);
  return accumulate(touched, src, masks.npts, [&](int i) {
    const CompressedSparse::Point& p =
        touched.points[static_cast<std::size_t>(i)];
    const int id = masks.sid(p.x, p.y, p.z);
    TEMPEST_REQUIRE_MSG(id >= 0, "support point not present in probe masks");
    return id;
  });
}

DecomposedReceivers decompose_receivers(const grid::Extents3& extents,
                                        const sparse::SparseTimeSeries& rec,
                                        sparse::InterpKind kind) {
  TEMPEST_TRACE_SPAN("precompute.receivers", "precompute");
  DecomposedReceivers out{
      affected_points(extents, rec, kind, /*drop_zero_sums=*/false),
      grid::Grid3<unsigned char>(extents, 0, 0),
      grid::Grid3<int>(extents, 0, -1)};
  write_dense(out, out.rm, out.rid);
  return out;
}

FusedOperands precompute_fused(const grid::Extents3& extents,
                               const sparse::SparseTimeSeries& src,
                               const sparse::SparseTimeSeries* rec,
                               sparse::InterpKind kind) {
  FusedOperands ops;
  {
    const AffectedPoints pts =
        affected_points(extents, src, kind, /*drop_zero_sums=*/true);
    ops.dcmp = decompose_sources(pts, src);
    ops.cs_src = CompressedSparse(extents.nx, extents.ny, pts.points);
  }
  if (rec != nullptr && rec->npoints() > 0) {
    ops.rec = affected_points(extents, *rec, kind, /*drop_zero_sums=*/false);
    ops.cs_rec = CompressedSparse(extents.nx, extents.ny, ops.rec.points);
  }
  return ops;
}

}  // namespace tempest::core
