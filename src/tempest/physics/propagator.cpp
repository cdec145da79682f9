#include "tempest/physics/propagator.hpp"

#include <sstream>
#include <utility>

#include "tempest/analysis/statics/verify.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

Propagator::Propagator(const PropagatorOptions& opts, std::string family,
                       int first_step, const Geometry& geom, double dt)
    : opts_(opts),
      family_(std::move(family)),
      first_step_(first_step),
      dt_(dt) {
  TEMPEST_REQUIRE(geom.space_order >= 2 && geom.space_order % 2 == 0);
  TEMPEST_REQUIRE(opts_.tiles.valid());
}

void Propagator::require_stable(double bound, double vp_max,
                                const Geometry& geom) const {
  namespace statics = analysis::statics;
  statics::require_stable(statics::check_bound(dt_, bound, vp_max,
                                               geom.spacing, geom.space_order,
                                               family_),
                          family_);
}

void Propagator::add_state(grid::TimeBuffer<real_t>& buffer) {
  for (int s = 0; s < buffer.slots(); ++s) state_.push_back(&buffer.slot(s));
}

void Propagator::add_state(std::initializer_list<grid::Grid3<real_t>*> grids) {
  state_.insert(state_.end(), grids.begin(), grids.end());
}

RunStats Propagator::run(Schedule sched, const sparse::SparseTimeSeries& src,
                         sparse::SparseTimeSeries* rec,
                         const StepCallback& on_step) {
  if (rec != nullptr) rec->zero();
  for (grid::Grid3<real_t>* g : state_) g->fill(real_t{0});
  return run_kernel(first_step_, sched, src, rec, on_step);
}

RunStats Propagator::run_from(int t_begin, Schedule sched,
                              const sparse::SparseTimeSeries& src,
                              sparse::SparseTimeSeries* rec,
                              const StepCallback& on_step) {
  return run_kernel(t_begin, sched, src, rec, on_step);
}

resilience::Checkpoint Propagator::capture(
    int step, std::uint64_t fingerprint,
    const sparse::SparseTimeSeries* rec) const {
  TEMPEST_REQUIRE(step >= first_step_);
  resilience::Checkpoint ck;
  ck.fingerprint = fingerprint;
  ck.step = step;
  ck.slots.reserve(state_.size());
  for (const grid::Grid3<real_t>* g : state_) ck.slots.push_back(*g);
  if (rec != nullptr) {
    ck.has_rec = true;
    ck.rec = *rec;
  }
  return ck;
}

void Propagator::restore(const resilience::Checkpoint& ck) {
  TEMPEST_REQUIRE(!state_.empty());
  const grid::Extents3& e = state_.front()->extents();
  const int halo = state_.front()->halo();
  if (ck.slots.size() != state_.size() || ck.slots.front().extents() != e ||
      ck.slots.front().halo() != halo) {
    std::ostringstream os;
    os << "checkpoint does not fit this propagator: it holds "
       << ck.slots.size() << " slices";
    if (!ck.slots.empty()) {
      const auto& ce = ck.slots.front().extents();
      os << " of " << ce.nx << "x" << ce.ny << "x" << ce.nz << " (halo "
         << ck.slots.front().halo() << ")";
    }
    os << ", this run needs " << state_.size() << " of " << e.nx << "x"
       << e.ny << "x" << e.nz << " (halo " << halo << ")";
    throw resilience::CheckpointMismatchError(os.str());
  }
  for (std::size_t i = 0; i < state_.size(); ++i) *state_[i] = ck.slots[i];
}

}  // namespace tempest::physics
