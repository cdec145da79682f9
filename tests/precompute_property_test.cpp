// The engine's precompute builds its operands straight from the sources'
// and receivers' support points (core::precompute_fused), never from dense
// volumes. These properties pin it, and the dense views written out from
// it, bit for bit to an independent oracle: the dense probe -> mask -> id
// -> decompose pipeline of the paper's Listings 2-3, implemented here over
// grid-sized volumes exactly as the engine used to run it.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "tempest/core/compress.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/util/rng.hpp"

namespace tc = tempest::core;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tu = tempest::util;
using tempest::real_t;

namespace {

/// The dense pipeline: a probe grid of unit-amplitude injections, ids over
/// its non-zero points in x-major order, the decomposition through SID,
/// and the receiver mask / ids / per-id (receiver, weight) lists.
struct DenseOracle {
  tg::Grid3<unsigned char> sm, rm;
  tg::Grid3<int> sid, rid;
  int npts = 0, rnpts = 0;
  std::vector<real_t> dcmp;  ///< nt x npts, time-major
  std::vector<int> roffsets;
  std::vector<std::vector<std::pair<int, real_t>>> rpairs;  ///< per id
};

DenseOracle dense_oracle(const tg::Extents3& e,
                         const sp::SparseTimeSeries& src,
                         const sp::SparseTimeSeries& rec,
                         sp::InterpKind kind) {
  DenseOracle o;
  o.sm = o.rm = tg::Grid3<unsigned char>(e, 0, 0);
  o.sid = o.rid = tg::Grid3<int>(e, 0, -1);
  tg::Grid3<real_t> probe(e, 0, real_t{0});
  for (int s = 0; s < src.npoints(); ++s) {
    for (const sp::SupportPoint& p : sp::support(src.coord(s), kind, e)) {
      probe(p.x, p.y, p.z) += static_cast<real_t>(p.w);
    }
  }
  probe.for_each_interior([&](int x, int y, int z) {
    if (probe(x, y, z) != real_t{0}) {
      o.sm(x, y, z) = 1;
      o.sid(x, y, z) = o.npts++;
    }
  });
  o.dcmp.assign(static_cast<std::size_t>(src.nt()) * o.npts, real_t{0});
  for (int s = 0; s < src.npoints(); ++s) {
    for (const sp::SupportPoint& p : sp::support(src.coord(s), kind, e)) {
      const int id = o.sid(p.x, p.y, p.z);
      for (int t = 0; t < src.nt(); ++t) {
        o.dcmp[static_cast<std::size_t>(t) * o.npts + id] +=
            static_cast<real_t>(p.w) * src.at(t, s);
      }
    }
  }
  for (int r = 0; r < rec.npoints(); ++r) {
    for (const sp::SupportPoint& p : sp::support(rec.coord(r), kind, e)) {
      o.rm(p.x, p.y, p.z) = 1;
    }
  }
  o.rm.for_each_interior([&](int x, int y, int z) {
    if (o.rm(x, y, z)) o.rid(x, y, z) = o.rnpts++;
  });
  o.rpairs.resize(static_cast<std::size_t>(o.rnpts));
  for (int r = 0; r < rec.npoints(); ++r) {
    for (const sp::SupportPoint& p : sp::support(rec.coord(r), kind, e)) {
      o.rpairs[static_cast<std::size_t>(o.rid(p.x, p.y, p.z))].push_back(
          {r, static_cast<real_t>(p.w)});
    }
  }
  o.roffsets.push_back(0);
  for (const auto& l : o.rpairs) {
    o.roffsets.push_back(o.roffsets.back() + static_cast<int>(l.size()));
  }
  return o;
}

std::uint32_t bits(real_t v) { return std::bit_cast<std::uint32_t>(v); }

void expect_same_columns(const tc::CompressedSparse& got,
                         const tc::CompressedSparse& want) {
  ASSERT_EQ(got.nx(), want.nx());
  ASSERT_EQ(got.ny(), want.ny());
  EXPECT_EQ(got.max_nnz(), want.max_nnz());
  EXPECT_EQ(got.total_entries(), want.total_entries());
  for (int x = 0; x < want.nx(); ++x) {
    for (int y = 0; y < want.ny(); ++y) {
      const auto g = got.entries(x, y);
      const auto w = want.entries(x, y);
      ASSERT_EQ(g.size(), w.size()) << "column " << x << "," << y;
      for (std::size_t k = 0; k < w.size(); ++k) {
        EXPECT_EQ(g[k].z, w[k].z);
        EXPECT_EQ(g[k].id, w[k].id);
      }
    }
  }
}

void expect_same_receivers(const tc::AffectedPoints& got,
                           const DenseOracle& o) {
  ASSERT_EQ(got.npts, o.rnpts);
  EXPECT_EQ(got.offsets, o.roffsets);
  std::size_t k = 0;
  for (const auto& l : o.rpairs) {
    for (const auto& [r, w] : l) {
      ASSERT_LT(k, got.pairs.size());
      EXPECT_EQ(got.pairs[k].site, r);
      EXPECT_EQ(bits(got.pairs[k].weight), bits(w));
      ++k;
    }
  }
  EXPECT_EQ(k, got.pairs.size());
}

template <typename T>
void expect_same_volume(const tg::Grid3<T>& got, const tg::Grid3<T>& want) {
  ASSERT_EQ(got.extents(), want.extents());
  int diffs = 0;
  want.for_each_interior([&](int x, int y, int z) {
    diffs += got(x, y, z) != want(x, y, z);
  });
  EXPECT_EQ(diffs, 0);
}

/// A random layout mixing the hard cases: off-grid sites, grid-coincident
/// sites, exact duplicates, and sites whose support grazes (and is
/// clipped by) the domain edge.
sp::CoordList random_layout(tu::SplitMix64& rng, const tg::Extents3& e,
                            int n) {
  const auto axis = [&](int extent) {
    switch (rng.below(4)) {
      case 0: return static_cast<double>(rng.below(extent));  // on grid
      case 1: return rng.uniform(0.0, 1.5);                   // low edge
      case 2: return rng.uniform(extent - 2.5, extent - 1.0);  // high edge
      default: return rng.uniform(0.0, extent - 1.0);
    }
  };
  sp::CoordList c;
  for (int i = 0; i < n; ++i) {
    if (!c.empty() && rng.below(5) == 0) {
      c.push_back(c[rng.below(c.size())]);  // duplicate site
    } else {
      c.push_back({axis(e.nx), axis(e.ny), axis(e.nz)});
    }
  }
  return c;
}

sp::SparseTimeSeries random_series(tu::SplitMix64& rng, sp::CoordList c,
                                   int nt) {
  sp::SparseTimeSeries s(std::move(c), nt);
  for (int t = 0; t < nt; ++t) {
    for (int p = 0; p < s.npoints(); ++p) {
      s.at(t, p) = static_cast<real_t>(rng.uniform(-1.0, 1.0));
    }
  }
  return s;
}

class SparseBuilder
    : public ::testing::TestWithParam<std::tuple<int, sp::InterpKind>> {};

}  // namespace

TEST_P(SparseBuilder, BitIdenticalToTheDensePipeline) {
  const auto [seed, kind] = GetParam();
  tu::SplitMix64 rng(static_cast<std::uint64_t>(seed) * 7919u + 1u);
  const tg::Extents3 e{static_cast<int>(9 + rng.below(12)),
                       static_cast<int>(9 + rng.below(12)),
                       static_cast<int>(9 + rng.below(12))};
  const int nt = 5;
  const auto sites = [&] {
    return random_layout(rng, e, 1 + static_cast<int>(rng.below(40)));
  };
  const sp::SparseTimeSeries src = random_series(rng, sites(), nt);
  const sp::SparseTimeSeries rec = random_series(rng, sites(), nt);
  const DenseOracle o = dense_oracle(e, src, rec, kind);

  // The engine's path.
  const tc::FusedOperands ops = tc::precompute_fused(e, src, &rec, kind);
  ASSERT_EQ(ops.dcmp.npts(), o.npts);
  ASSERT_EQ(ops.dcmp.nt(), nt);
  for (int t = 0; t < nt; ++t) {
    for (int id = 0; id < o.npts; ++id) {
      ASSERT_EQ(bits(ops.dcmp.at(t, id)),
                bits(o.dcmp[static_cast<std::size_t>(t) * o.npts + id]))
          << "t=" << t << " id=" << id;
    }
  }
  expect_same_columns(ops.cs_src, tc::CompressedSparse(o.sm, o.sid));
  expect_same_columns(ops.cs_rec, tc::CompressedSparse(o.rm, o.rid));
  expect_same_receivers(ops.rec, o);

  // The dense views written out from the same builder.
  const tc::SourceMasks masks = tc::build_source_masks(e, src, kind);
  EXPECT_EQ(masks.npts, o.npts);
  expect_same_volume(masks.sm, o.sm);
  expect_same_volume(masks.sid, o.sid);
  const tc::DecomposedSource view = tc::decompose_sources(masks, src, kind);
  for (int t = 0; t < nt; ++t) {
    for (int id = 0; id < o.npts; ++id) {
      ASSERT_EQ(bits(view.at(t, id)),
                bits(o.dcmp[static_cast<std::size_t>(t) * o.npts + id]));
    }
  }
  const tc::DecomposedReceivers drec = tc::decompose_receivers(e, rec, kind);
  expect_same_volume(drec.rm, o.rm);
  expect_same_volume(drec.rid, o.rid);
  expect_same_receivers(drec, o);
}

INSTANTIATE_TEST_SUITE_P(
    RandomLayouts, SparseBuilder,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(sp::InterpKind::Trilinear,
                                         sp::InterpKind::WindowedSinc)),
    [](const auto& info) {
      const bool trilinear =
          std::get<1>(info.param) == sp::InterpKind::Trilinear;
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (trilinear ? "_trilinear" : "_sinc");
    });

// No sources and no receivers: empty operands, nothing allocated per cell.
TEST(SparsePrecompute, EmptySetsGiveEmptyOperands) {
  const tg::Extents3 e{8, 8, 8};
  const sp::SparseTimeSeries none({}, 3);
  const tc::FusedOperands ops =
      tc::precompute_fused(e, none, &none, sp::InterpKind::Trilinear);
  EXPECT_EQ(ops.dcmp.npts(), 0);
  EXPECT_TRUE(ops.cs_src.empty());
  EXPECT_TRUE(ops.cs_rec.empty());
  EXPECT_EQ(ops.rec.npts, 0);
}

// The engine's precompute at 320^3, where the dense probe/SM/SID/RM/RID
// volumes alone would take ~440 MiB: the process peak grows by far less.
TEST(SparsePrecompute, EnginePrecomputeAllocatesNoGridSizedVolume) {
  const tg::Extents3 e{320, 320, 320};
  const int nt = 8;
  sp::SparseTimeSeries src(sp::dense_volume(e, 4096, 17), nt);
  for (int t = 0; t < nt; ++t) {
    for (int s = 0; s < src.npoints(); ++s) src.at(t, s) = real_t{1};
  }
  const sp::SparseTimeSeries rec(sp::receiver_carpet(e, 128, 128), nt);
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const tc::FusedOperands ops =
      tc::precompute_fused(e, src, &rec, sp::InterpKind::Trilinear);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_GT(ops.dcmp.npts(), 0);
  EXPECT_GT(ops.rec.npts, 0);
  const double grew_mib =
      static_cast<double>(after.ru_maxrss - before.ru_maxrss) / 1024.0;
  EXPECT_LT(grew_mib, 64.0);
}
