#include "tempest/physics/model.hpp"

#include <cmath>

#include "tempest/physics/damping.hpp"
#include "tempest/stencil/cfl.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

namespace {

/// Depth-dependent layered velocity: `layers` constant-velocity slabs from
/// v_top at z=0 to v_bottom at the deepest slab.
real_t layered_velocity(int z, int nz, double v_top, double v_bottom,
                        int layers) {
  const int layer = std::min(layers - 1, z * layers / std::max(1, nz));
  const double f =
      layers > 1 ? static_cast<double>(layer) / (layers - 1) : 0.0;
  return static_cast<real_t>(v_top + f * (v_bottom - v_top));
}

grid::Grid3<real_t> squared_slowness(const grid::Grid3<real_t>& vp, int halo) {
  grid::Grid3<real_t> m(vp.extents(), halo, real_t{0});
  vp.for_each_interior([&](int x, int y, int z) {
    const real_t v = vp(x, y, z);
    m(x, y, z) = real_t{1} / (v * v);
  });
  // Extend into the halo so stencil reads of m at the edge stay physical.
  // (Only the update-point value of m is read by the kernels, but a constant
  // halo keeps the division in the update well-defined everywhere.)
  return m;
}

}  // namespace

double AcousticModel::vp_max() const { return grid::max_abs(vp); }

double AcousticModel::critical_dt(double safety) const {
  return stencil::acoustic_dt(geom.spacing, vp_max(), geom.space_order,
                              safety);
}

double TTIModel::vp_max() const { return grid::max_abs(vp); }

double TTIModel::critical_dt(double safety) const {
  return stencil::tti_dt(geom.spacing, vp_max(), geom.space_order,
                         grid::max_abs(epsilon), grid::max_abs(delta),
                         safety);
}

double ElasticModel::vp_max() const { return grid::max_abs(vp); }

double ElasticModel::critical_dt(double safety) const {
  return stencil::elastic_dt(geom.spacing, vp_max(), geom.space_order,
                             safety);
}

AcousticModel make_acoustic_homogeneous(const Geometry& g, double vp_val) {
  TEMPEST_REQUIRE(vp_val > 0.0);
  const int h = g.radius();
  AcousticModel model{g,
                      grid::Grid3<real_t>(g.extents, h,
                                          static_cast<real_t>(vp_val)),
                      grid::Grid3<real_t>(g.extents, h, real_t{0}),
                      make_damping(g, vp_val)};
  model.m = squared_slowness(model.vp, h);
  model.m.fill(static_cast<real_t>(1.0 / (vp_val * vp_val)));
  return model;
}

AcousticModel make_acoustic_layered(const Geometry& g, double v_top,
                                    double v_bottom, int layers) {
  TEMPEST_REQUIRE(v_top > 0.0 && v_bottom >= v_top && layers >= 1);
  const int h = g.radius();
  AcousticModel model{g, grid::Grid3<real_t>(g.extents, h, real_t{0}),
                      grid::Grid3<real_t>(g.extents, h, real_t{0}),
                      make_damping(g, v_top)};
  model.vp.for_each_interior([&](int x, int y, int z) {
    (void)x;
    (void)y;
    model.vp(x, y, z) =
        layered_velocity(z, g.extents.nz, v_top, v_bottom, layers);
  });
  model.m = squared_slowness(model.vp, h);
  return model;
}

TTIModel make_tti_layered(const Geometry& g, double v_top, double v_bottom,
                          int layers) {
  TEMPEST_REQUIRE(v_top > 0.0 && v_bottom >= v_top && layers >= 1);
  const int h = g.radius();
  TTIModel model{g,
                 grid::Grid3<real_t>(g.extents, h, real_t{0}),
                 grid::Grid3<real_t>(g.extents, h, real_t{0}),
                 make_damping(g, v_top),
                 grid::Grid3<real_t>(g.extents, h, real_t{0}),
                 grid::Grid3<real_t>(g.extents, h, real_t{0}),
                 grid::Grid3<real_t>(g.extents, h, real_t{0}),
                 grid::Grid3<real_t>(g.extents, h, real_t{0})};
  const auto& e = g.extents;
  model.vp.for_each_interior([&](int x, int y, int z) {
    model.vp(x, y, z) = layered_velocity(z, e.nz, v_top, v_bottom, layers);
    // Smoothly varying anisotropy and tilt, in the ranges typical of
    // sedimentary TTI models (Thomsen eps up to ~0.25, delta up to ~0.15,
    // tilt up to ~30 degrees).
    const double fx = static_cast<double>(x) / std::max(1, e.nx - 1);
    const double fz = static_cast<double>(z) / std::max(1, e.nz - 1);
    model.epsilon(x, y, z) = static_cast<real_t>(0.10 + 0.15 * fz);
    model.delta(x, y, z) = static_cast<real_t>(0.05 + 0.10 * fz);
    model.theta(x, y, z) = static_cast<real_t>(0.5 * fx);  // 0..~28.6 deg
    model.phi(x, y, z) = static_cast<real_t>(0.3 * fz);
  });
  model.m = squared_slowness(model.vp, h);
  return model;
}

ElasticModel make_elastic_layered(const Geometry& g, double vp_top,
                                  double vp_bottom, int layers) {
  TEMPEST_REQUIRE(vp_top > 0.0 && vp_bottom >= vp_top && layers >= 1);
  const int h = g.radius();
  auto zero = [&] { return grid::Grid3<real_t>(g.extents, h, real_t{0}); };
  ElasticModel model{g,      zero(), zero(), zero(), zero(),
                     zero(), zero(), make_damping(g, vp_top)};
  const double rho0 = 1.0;  // g/cm^3 — constant density Poisson solid
  model.vp.for_each_interior([&](int x, int y, int z) {
    const real_t vp =
        layered_velocity(z, g.extents.nz, vp_top, vp_bottom, layers);
    const real_t vs = vp / static_cast<real_t>(std::sqrt(3.0));
    model.vp(x, y, z) = vp;
    model.vs(x, y, z) = vs;
    model.rho(x, y, z) = static_cast<real_t>(rho0);
    model.mu(x, y, z) = static_cast<real_t>(rho0) * vs * vs;
    model.lam(x, y, z) =
        static_cast<real_t>(rho0) * (vp * vp - real_t{2} * vs * vs);
    model.b(x, y, z) = static_cast<real_t>(1.0 / rho0);
  });
  return model;
}

}  // namespace tempest::physics
