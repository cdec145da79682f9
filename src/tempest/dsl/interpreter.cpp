#include "tempest/dsl/interpreter.hpp"

#include <cmath>

#include "tempest/grid/time_buffer.hpp"
#include "tempest/sparse/operators.hpp"
#include "tempest/stencil/apply.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::dsl {

namespace {

/// Evaluation context for one grid point at one timestep.
struct PointEnv {
  const grid::TimeBuffer<real_t>* u;
  const physics::AcousticModel* model;
  const stencil::Coeffs* c2;
  double dt;
  int t;  ///< current step: Field offsets resolve against this
  int x, y, z;
  double trial;  ///< trial value for the forward field reference
};

double eval(const ExprNode& n, const PointEnv& env);

double eval_field(const ExprNode& n, const PointEnv& env, int extra_dt) {
  // extra_dt unused placeholder for future staggered semantics.
  (void)extra_dt;
  if (n.time_offset == 1) return env.trial;
  return env.u->at(env.t + n.time_offset)(env.x, env.y, env.z);
}

double eval_deriv(const ExprNode& n, const PointEnv& env) {
  const ExprNode& arg = n.children[0].node();
  TEMPEST_REQUIRE_MSG(arg.kind == ExprNode::Kind::Field,
                      "interpreter derivatives apply to plain fields");
  switch (n.deriv) {
    case DerivKind::Dt: {
      // (u.forward - u.backward) / (2 dt)
      const double fwd = env.trial;
      const double bwd = env.u->at(env.t - 1)(env.x, env.y, env.z);
      return (fwd - bwd) / (2.0 * env.dt);
    }
    case DerivKind::Dt2: {
      const double fwd = env.trial;
      const double now = env.u->at(env.t)(env.x, env.y, env.z);
      const double bwd = env.u->at(env.t - 1)(env.x, env.y, env.z);
      return (fwd - 2.0 * now + bwd) / (env.dt * env.dt);
    }
    case DerivKind::Laplace:
      TEMPEST_REQUIRE_MSG(arg.time_offset == 0,
                          "laplace applies to the current time level");
      return stencil::laplacian(env.u->at(env.t), *env.c2,
                                env.model->geom.spacing, env.x, env.y,
                                env.z);
    default:
      TEMPEST_REQUIRE_MSG(false,
                          "interpreter supports Dt/Dt2/Laplace derivatives");
      return 0.0;
  }
}

double eval(const ExprNode& n, const PointEnv& env) {
  switch (n.kind) {
    case ExprNode::Kind::Constant: return n.value;
    case ExprNode::Kind::Field: return eval_field(n, env, 0);
    case ExprNode::Kind::Param: {
      if (n.name == "m") return env.model->m(env.x, env.y, env.z);
      if (n.name == "damp") return env.model->damp(env.x, env.y, env.z);
      if (n.name == "vp") return env.model->vp(env.x, env.y, env.z);
      TEMPEST_REQUIRE_MSG(false, "unknown parameter: " + n.name);
      return 0.0;
    }
    case ExprNode::Kind::Deriv: return eval_deriv(n, env);
    case ExprNode::Kind::Binary: {
      const double l = eval(n.children[0].node(), env);
      const double r = eval(n.children[1].node(), env);
      switch (n.op) {
        case BinOp::Add: return l + r;
        case BinOp::Sub: return l - r;
        case BinOp::Mul: return l * r;
        case BinOp::Div: return l / r;
      }
      return 0.0;
    }
  }
  return 0.0;
}

}  // namespace

Interpreter::Interpreter(Eq update, const physics::AcousticModel& model,
                         double dt)
    : update_(std::move(update)), model_(model), dt_(dt) {
  TEMPEST_REQUIRE(dt > 0.0);
  const ExprNode& lhs = update_.lhs.node();
  TEMPEST_REQUIRE_MSG(
      lhs.kind == ExprNode::Kind::Field && lhs.time_offset == 1,
      "update lhs must be a forward field reference");
  field_name_ = lhs.name;
}

grid::Grid3<real_t> Interpreter::run(const sparse::SparseTimeSeries& src,
                                     sparse::InterpKind kind) const {
  const auto& e = model_.geom.extents;
  const int r = model_.geom.radius();
  const stencil::Coeffs c2 = stencil::central(2, model_.geom.space_order);
  grid::TimeBuffer<real_t> u(3, e, r, real_t{0});
  const int nt = src.nt();

  const auto& m_grid = model_.m;
  const double dt2 = dt_ * dt_;
  auto inj_scale = [&](int x, int y, int z) {
    return dt2 / m_grid(x, y, z);
  };

  for (int t = 1; t < nt; ++t) {
    auto& next = u.at(t + 1);
    for (int x = 0; x < e.nx; ++x) {
      for (int y = 0; y < e.ny; ++y) {
        for (int z = 0; z < e.nz; ++z) {
          PointEnv env{&u, &model_, &c2, dt_, t, x, y, z, 0.0};
          // equation(trial) is linear in the trial forward value:
          // solve A*trial + B = 0 by two evaluations.
          env.trial = 0.0;
          const double b = eval(update_.rhs.node(), env);
          env.trial = 1.0;
          const double a_plus_b = eval(update_.rhs.node(), env);
          const double a = a_plus_b - b;
          TEMPEST_REQUIRE_MSG(std::fabs(a) > 1e-30,
                              "equation is independent of the forward value");
          next(x, y, z) = static_cast<real_t>(-b / a);
        }
      }
    }
    sparse::inject(next, src, t, kind, inj_scale);
  }
  // Return a copy of the final wavefield.
  return u.at(nt);
}

}  // namespace tempest::dsl
