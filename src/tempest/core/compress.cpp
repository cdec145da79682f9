#include "tempest/core/compress.hpp"

#include <algorithm>
#include <tuple>

#include "tempest/trace/trace.hpp"
#include "tempest/util/error.hpp"

namespace tempest::core {

CompressedSparse::CompressedSparse(int nx, int ny,
                                   std::span<const Point> points)
    : nx_(nx), ny_(ny) {
  TEMPEST_TRACE_SPAN("precompute.compress", "precompute");
  TEMPEST_REQUIRE(nx > 0 && ny > 0);
  offsets_.assign(static_cast<std::size_t>(nx_) * ny_ + 1, 0);
  data_.reserve(points.size());
  // Points arrive x-major, so each column's entries are contiguous and z
  // ascending: the packed Sp_SID is the point list itself, and the
  // per-column counts (the nnz_mask of Fig. 6) prefix-sum into offsets.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    TEMPEST_REQUIRE(p.x >= 0 && p.x < nx_ && p.y >= 0 && p.y < ny_);
    TEMPEST_REQUIRE_MSG(
        i == 0 || std::tie(points[i - 1].x, points[i - 1].y, points[i - 1].z) <
                      std::tie(p.x, p.y, p.z),
        "compressed points must be unique and in x-major order");
    ++offsets_[column(p.x, p.y) + 1];
    data_.push_back(Entry{p.z, p.id});
  }
  for (std::size_t c = 1; c < offsets_.size(); ++c) {
    max_nnz_ = std::max(max_nnz_, offsets_[c]);
    offsets_[c] += offsets_[c - 1];
  }
}

namespace {

std::vector<CompressedSparse::Point> masked_points(
    const grid::Grid3<unsigned char>& mask, const grid::Grid3<int>& ids) {
  TEMPEST_REQUIRE(mask.extents() == ids.extents());
  std::vector<CompressedSparse::Point> points;
  mask.for_each_interior([&](int x, int y, int z) {
    if (!mask(x, y, z)) return;
    const int id = ids(x, y, z);
    TEMPEST_REQUIRE_MSG(id >= 0, "masked point has no id");
    points.push_back({x, y, z, id});
  });
  return points;
}

}  // namespace

CompressedSparse::CompressedSparse(const grid::Grid3<unsigned char>& mask,
                                   const grid::Grid3<int>& ids)
    : CompressedSparse(mask.extents().nx, mask.extents().ny,
                       masked_points(mask, ids)) {}

}  // namespace tempest::core
