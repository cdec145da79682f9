#pragma once

// Thread-count policy and the one runtime every parallel schedule runs on.
//
// Thread policy: one knob, `TEMPEST_THREADS`. An explicit request (CLI flag,
// ExecutionOptions::threads) wins; otherwise the environment variable;
// otherwise std::thread::hardware_concurrency(). A resolved count of 1
// always means the deterministic serial path — no worker is woken at all.
//
// Runtime: a process-wide team of persistent std::thread workers, grown
// lazily to the largest count ever requested and never shrunk. Between
// calls its members spin briefly on the dispatch flag, then park on a
// condition variable. The calling thread takes part as worker 0. A call
// made from inside a running body (nested), or while another thread owns
// the team (concurrent), runs inline on the calling thread in ascending
// order — still correct, just serial. Only standard C++ synchronization is
// used, so the ThreadSanitizer build checks exactly the runtime users run.

#include <functional>
#include <vector>

namespace tempest::util {

/// $TEMPEST_THREADS parsed (clamped to >= 1), or 0 when unset/invalid.
[[nodiscard]] int env_threads();

/// The worker count a parallel region should use: `requested` when >= 1,
/// else $TEMPEST_THREADS, else std::thread::hardware_concurrency() (>= 1).
[[nodiscard]] int resolve_threads(int requested = 0);

/// Run fn(i) for every i in [0, n). threads <= 1 runs the serial loop in
/// ascending order; otherwise the iterations execute concurrently on the
/// worker team and fn must be race-free across iterations. Exceptions from
/// fn are rethrown (first one wins; later iterations are skipped).
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

/// A static task DAG executed on the worker team. Nodes are dense ints
/// [0, size); edges always point from a lower to a higher node id, so
/// ascending node order is a topological order and the serial schedule is
/// simply `for (i) body(i)` — the bitwise-deterministic reference. A node
/// may have any number of predecessors.
class TaskDag {
 public:
  TaskDag() = default;
  explicit TaskDag(int n);

  /// Add edge pred -> succ (pred must complete before succ starts).
  /// Requires pred < succ: the graph stays acyclic by construction.
  void add_edge(int pred, int succ);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] const std::vector<int>& preds(int node) const;

  /// Execute body(node) for every node honoring every edge. threads <= 1:
  /// serial ascending order. Exceptions are rethrown after the graph
  /// drains (remaining bodies are skipped, first exception wins).
  void run(int threads, const std::function<void(int)>& body) const;

 private:
  int n_ = 0;
  std::vector<std::vector<int>> preds_;
  std::vector<std::vector<int>> succs_;
};

}  // namespace tempest::util
