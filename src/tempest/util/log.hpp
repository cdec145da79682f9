#pragma once

#include <iostream>
#include <string_view>

namespace tempest::util {

/// Minimal diagnostics channel for recoverable conditions: the resilience
/// paths (JIT retries, skipped autotune trials, ignored stale checkpoints)
/// must tell the operator what degraded without aborting the run. Writes to
/// stderr so stdout stays clean for the benches' CSV output.
inline void warn(std::string_view msg) {
  std::cerr << "[tempest] warning: " << msg << "\n";
}

inline void info(std::string_view msg) {
  std::cerr << "[tempest] " << msg << "\n";
}

}  // namespace tempest::util
