#include "tempest/util/threads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "tempest/util/error.hpp"

namespace tempest::util {

int env_threads() {
  const char* env = std::getenv("TEMPEST_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  if (v < 1) return 0;
  return static_cast<int>(v);
}

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  const int env = env_threads();
  if (env >= 1) return env;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

namespace {

/// Polls of a dispatch or completion flag before a thread parks: long
/// enough to bridge the gap between back-to-back calls (one substep to the
/// next), short enough that an idle team costs no CPU.
constexpr int kSpinPolls = 20000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin on `ready` for kSpinPolls polls, then block on `cv` until it holds.
/// `ready` reads atomics; whoever makes it true must then lock `mu` before
/// notifying `cv` (a waiter holds `mu` from its last check until it
/// sleeps), so no wakeup is lost.
template <typename Ready>
void spin_then_park(const Ready& ready, std::mutex& mu,
                    std::condition_variable& cv) {
  for (int i = 0; i < kSpinPolls; ++i) {
    if (ready()) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, ready);
}

/// True on team members and on a caller while it runs its worker-0 share:
/// a parallel call made there runs inline.
thread_local bool t_in_team = false;

/// The process-wide worker team. Every member acknowledges every dispatch
/// (members beyond the job's worker count just count down), so the caller
/// only rewrites the job fields once the whole team is idle again.
class Team {
 public:
  /// Never destroyed: members keep polling the team's fields after the
  /// last call, so destroying it at exit would race them; parked members
  /// simply end with the process.
  static Team& instance() {
    static Team* const team = new Team;
    return *team;
  }

  /// Run job(w) for w in [0, workers), the caller as worker 0. Returns
  /// false without running anything when the caller is inside a team job
  /// or another thread owns the team.
  bool run(int workers, const std::function<void(int)>& job) {
    if (t_in_team) return false;
    const std::unique_lock<std::mutex> owner(owner_, std::try_to_lock);
    if (!owner.owns_lock()) return false;
    while (static_cast<int>(members_.size()) < workers - 1) {
      const int w = static_cast<int>(members_.size()) + 1;
      const std::uint64_t seen = epoch_.load(std::memory_order_relaxed);
      members_.emplace_back([this, w, seen] { member(w, seen); });
    }
    job_ = &job;
    workers_ = workers;
    pending_.store(static_cast<int>(members_.size()),
                   std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lk(park_mu_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    park_cv_.notify_all();
    t_in_team = true;
    job(0);
    t_in_team = false;
    spin_then_park(
        [this] { return pending_.load(std::memory_order_acquire) == 0; },
        done_mu_, done_cv_);
    return true;
  }

 private:
  void member(int w, std::uint64_t seen) {
    t_in_team = true;
    for (;;) {
      spin_then_park(
          [&] { return epoch_.load(std::memory_order_acquire) != seen; },
          park_mu_, park_cv_);
      ++seen;
      if (w < workers_) (*job_)(w);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lk(done_mu_);
        done_cv_.notify_one();
      }
    }
  }

  std::mutex owner_;  ///< held by the calling thread for a whole dispatch
  std::vector<std::thread> members_;
  const std::function<void(int)>* job_ = nullptr;
  int workers_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> pending_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

/// First-exception capture: worker bodies must not throw out of the team,
/// so the first exception is kept and rethrown on the calling thread.
class ExceptionSlot {
 public:
  void capture() {
    const std::lock_guard<std::mutex> lk(mu_);
    if (!ptr_) ptr_ = std::current_exception();
    armed_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }
  /// Call after the team has finished the job.
  void rethrow() const {
    if (ptr_) std::rethrow_exception(ptr_);
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::exception_ptr ptr_;
};

}  // namespace

void parallel_for(int n, int threads, const std::function<void(int)>& fn) {
  const int workers = std::min(threads, n);
  if (workers > 1) {
    std::atomic<int> next{0};
    ExceptionSlot error;
    const std::function<void(int)> job = [&](int) {
      for (int i = next.fetch_add(1, std::memory_order_relaxed);
           i < n && !error.armed();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          error.capture();
        }
      }
    };
    if (Team::instance().run(workers, job)) {
      error.rethrow();
      return;
    }
  }
  for (int i = 0; i < n; ++i) fn(i);
}

TaskDag::TaskDag(int n) : n_(n) {
  TEMPEST_REQUIRE(n >= 0);
  preds_.resize(static_cast<std::size_t>(n));
  succs_.resize(static_cast<std::size_t>(n));
}

void TaskDag::add_edge(int pred, int succ) {
  TEMPEST_REQUIRE(pred >= 0 && succ < n_);
  TEMPEST_REQUIRE_MSG(pred < succ,
                      "task edges must point forward (pred < succ) so "
                      "ascending node order stays topological");
  preds_[static_cast<std::size_t>(succ)].push_back(pred);
  succs_[static_cast<std::size_t>(pred)].push_back(succ);
}

const std::vector<int>& TaskDag::preds(int node) const {
  return preds_[static_cast<std::size_t>(node)];
}

void TaskDag::run(int threads, const std::function<void(int)>& body) const {
  const int workers = std::min(threads, n_);
  if (workers > 1) {
    // Topological execution: a node becomes ready when its last
    // predecessor completes. The finishing worker keeps one newly ready
    // successor for itself and pushes the rest on the ready stack. `m`
    // guards the stack, in-degrees and `remaining`; `avail` and `drained`
    // mirror them so idle workers can spin before they park.
    std::vector<int> indeg(static_cast<std::size_t>(n_));
    std::vector<int> ready;
    for (int i = 0; i < n_; ++i) {
      indeg[static_cast<std::size_t>(i)] = static_cast<int>(preds(i).size());
      if (preds(i).empty()) ready.push_back(i);
    }
    int remaining = n_;
    std::mutex m;
    std::condition_variable cv;
    std::atomic<int> avail{static_cast<int>(ready.size())};
    std::atomic<bool> drained{false};
    ExceptionSlot error;
    const std::function<void(int)> job = [&](int) {
      int task = -1;
      for (;;) {
        if (task < 0) {
          spin_then_park(
              [&] {
                return avail.load(std::memory_order_relaxed) > 0 ||
                       drained.load(std::memory_order_relaxed);
              },
              m, cv);
          const std::lock_guard<std::mutex> lk(m);
          if (ready.empty()) {
            if (remaining == 0) return;
            continue;  // another worker took it
          }
          task = ready.back();
          ready.pop_back();
          avail.store(static_cast<int>(ready.size()),
                      std::memory_order_relaxed);
        }
        if (!error.armed()) {
          try {
            body(task);
          } catch (...) {
            error.capture();
          }
        }
        int next = -1;
        bool wake = false;
        {
          const std::lock_guard<std::mutex> lk(m);
          --remaining;
          for (const int s : succs_[static_cast<std::size_t>(task)]) {
            if (--indeg[static_cast<std::size_t>(s)] != 0) continue;
            if (next < 0) {
              next = s;
            } else {
              ready.push_back(s);
            }
          }
          avail.store(static_cast<int>(ready.size()),
                      std::memory_order_relaxed);
          drained.store(remaining == 0, std::memory_order_relaxed);
          wake = !ready.empty() || remaining == 0;
        }
        if (wake) cv.notify_all();
        task = next;
      }
    };
    if (Team::instance().run(workers, job)) {
      error.rethrow();
      return;
    }
  }
  for (int i = 0; i < n_; ++i) body(i);
}

}  // namespace tempest::util
