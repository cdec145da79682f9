#include "tempest/analysis/statics/verify.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace tempest::analysis::statics {

std::vector<Diagnostic> StaticsReport::diagnostics() const {
  std::vector<Diagnostic> all;
  all.insert(all.end(), intervals.diagnostics.begin(),
             intervals.diagnostics.end());
  all.insert(all.end(), stability.diagnostics.begin(),
             stability.diagnostics.end());
  all.insert(all.end(), lint.diagnostics.begin(), lint.diagnostics.end());
  return all;
}

int StaticsReport::errors() const {
  const std::vector<Diagnostic> all = diagnostics();
  return static_cast<int>(
      std::count_if(all.begin(), all.end(), [](const Diagnostic& d) {
        return d.severity == Diagnostic::Severity::Error;
      }));
}

std::string StaticsReport::str() const {
  std::ostringstream os;
  os << "statics[" << kernel << "]: " << errors() << " error(s)\n  "
     << intervals.str() << "\n  " << stability.str() << "\n  " << lint.str();
  return os.str();
}

StaticsReport verify_statics(const dsl::LoweredKernel& kernel,
                             const StaticsOptions& options) {
  StaticsReport report;
  report.kernel = kernel.name;
  report.intervals = interpret(kernel, options.bounds);

  if (options.check_stability) {
    Interval vp = Interval::top();
    const auto it = options.bounds.find("vp");
    if (it != options.bounds.end()) vp = it->second;
    report.stability = check_acoustic_stability(kernel.dt, kernel.spacing,
                                                kernel.space_order, vp);
  }

  LintOptions lopts;
  lopts.declared_radius = options.declared_radius;
  lopts.resolvable = options.resolvable;
  report.lint = lint_kernel(kernel, lopts);
  return report;
}

namespace {

std::string verification_message(const StaticsReport& report) {
  std::ostringstream os;
  os << "static verification failed for kernel '" << report.kernel << "' ("
     << report.errors() << " error(s))\n"
     << report.str();
  return os.str();
}

}  // namespace

StaticVerificationError::StaticVerificationError(StaticsReport report)
    : util::PreconditionError(verification_message(report)),
      report_(std::move(report)) {}

void require_static_ok(const StaticsReport& report) {
  if (!report.ok()) throw StaticVerificationError(report);
}

void require_stable(const StabilityVerdict& verdict,
                    const std::string& kernel) {
  if (verdict.stable()) return;
  StaticsReport report;
  report.kernel = kernel;
  report.stability = verdict;
  throw StaticVerificationError(std::move(report));
}

namespace {

/// Value interval of a grid's interior; top for an empty interior.
Interval scan_interior(const grid::Grid3<real_t>& g) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  g.for_each_interior([&](int x, int y, int z) {
    const double v = g(x, y, z);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  });
  if (lo > hi) return Interval::top();  // empty interior
  return {lo, hi};
}

}  // namespace

BoundEnv model_bounds(const physics::AcousticModel& model,
                      const dsl::ParamBindings& bindings,
                      const std::string& field, double amplitude) {
  BoundEnv env;
  env[field] = Interval{-amplitude, amplitude};
  env["vp"] = scan_interior(model.vp);
  env["m"] = scan_interior(model.m);
  env["damp"] = scan_interior(model.damp);
  for (const auto& [name, g] : bindings) {
    if (g != nullptr) env[name] = scan_interior(*g);
  }
  return env;
}

std::vector<std::string> resolvable_names(const dsl::ParamBindings& bindings) {
  std::vector<std::string> names = {"m", "damp", "vp"};
  for (const auto& [name, g] : bindings) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  return names;
}

}  // namespace tempest::analysis::statics
