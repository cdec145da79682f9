#include "tempest/trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#define TEMPEST_TRACE_HAVE_SIGNALS 1
#endif

namespace tempest::trace {

namespace {

/// Per-thread buffer: counter accumulators plus completed spans. The
/// recording thread is the only writer of `events`; `mu` serialises those
/// writes against the serial-phase sinks that drain them. Counters are
/// relaxed atomics so the sinks can read them without the lock.
struct ThreadState {
  std::array<std::atomic<long long>, kNumCounters> counters{};
  std::vector<Event> events;
  std::mutex mu;
  int tid = 0;
};

/// Registry of every thread that ever traced. States are shared_ptr so a
/// thread exiting does not invalidate its (still unread) buffer.
///
/// The worker team's members persist, but any other thread that traces
/// (a caller's own std::threads, a test's) may exit, so "every thread that
/// ever traced" is unbounded over a long run. Exited threads' buffers are
/// therefore *merged on flush*: any aggregation pass folds the counters
/// and events of dead threads into the `retired` accumulators and drops
/// their states, keeping the registry bounded by the number of *live*
/// threads while totals stay exactly thread-count-invariant (a worker's
/// counts survive its thread).
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadState>> states;
  int next_tid = 0;
  std::array<long long, kNumCounters> retired_counters{};
  std::vector<Event> retired_events;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Fold the buffers of exited threads into the retired accumulators.
/// Caller holds r.mu. A state whose only owner is the registry belongs to
/// a thread whose thread_local handle has been destroyed — no new writes
/// can arrive, so the merge is race-free.
void compact_locked(Registry& r) {
  auto dead_begin = std::partition(
      r.states.begin(), r.states.end(),
      [](const std::shared_ptr<ThreadState>& s) { return s.use_count() > 1; });
  for (auto it = dead_begin; it != r.states.end(); ++it) {
    ThreadState& s = **it;
    const std::lock_guard<std::mutex> state_lock(s.mu);
    for (int c = 0; c < kNumCounters; ++c) {
      r.retired_counters[static_cast<std::size_t>(c)] +=
          s.counters[static_cast<std::size_t>(c)].load(
              std::memory_order_relaxed);
    }
    r.retired_events.insert(r.retired_events.end(), s.events.begin(),
                            s.events.end());
  }
  r.states.erase(dead_begin, r.states.end());
}

ThreadState& local_state() {
  thread_local std::shared_ptr<ThreadState> state = [] {
    auto s = std::make_shared<ThreadState>();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    s->tid = r.next_tid++;
    r.states.push_back(s);
    return s;
  }();
  return *state;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_epoch_ns{0};
std::atomic<const SpanEnricher*> g_enricher{nullptr};
std::atomic<const EventTap*> g_tap{nullptr};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() { return steady_ns() - g_epoch_ns.load(std::memory_order_relaxed); }

// The sinks below write through `Out`: a std::ostream, or the crash
// path's SignalSink (async-signal-safe), which provides the same
// operator<< for char, const char* and long long.

/// JSON string escape for names (call-site literals, but keep it correct).
template <typename Out>
void write_json_string(Out& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
             << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// One Chrome trace "X" event. Times are microseconds in the format, so
/// nanoseconds are written as `<ns>e-3`: exact at any run length.
template <typename Out>
void write_trace_event(Out& os, const Event& e) {
  os << "{\"name\":";
  write_json_string(os, e.name);
  os << ",\"cat\":";
  write_json_string(os, e.cat);
  os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << static_cast<long long>(e.tid)
     << ",\"ts\":" << static_cast<long long>(e.ts_ns)
     << "e-3,\"dur\":" << static_cast<long long>(e.dur_ns) << "e-3";
  if (e.has_arg || e.n_slots > 0) {
    os << ",\"args\":{";
    bool first_arg = true;
    if (e.has_arg) {
      os << "\"t\":" << static_cast<long long>(e.arg);
      first_arg = false;
    }
    for (int i = 0; i < e.n_slots; ++i) {
      if (!first_arg) os << ',';
      first_arg = false;
      write_json_string(os, e.slot_names[i]);
      os << ':'
         << static_cast<long long>(e.slots[static_cast<std::size_t>(i)]);
    }
    os << '}';
  }
  os << '}';
}

/// Counter totals as JSON object members: "name":value,...
template <typename Out>
void write_counter_fields(Out& os, const CounterSnapshot& counters) {
  for (int c = 0; c < kNumCounters; ++c) {
    if (c != 0) os << ',';
    write_json_string(os, to_string(static_cast<Counter>(c)));
    os << ':' << counters[static_cast<std::size_t>(c)];
  }
}

/// Counter totals as metrics CSV rows.
template <typename Out>
void write_counter_rows(Out& os, const CounterSnapshot& counters) {
  for (int c = 0; c < kNumCounters; ++c) {
    os << "counter," << to_string(static_cast<Counter>(c)) << ','
       << counters[static_cast<std::size_t>(c)] << '\n';
  }
}

/// Per-span-name aggregate used by the flat metrics sinks.
struct SpanAggregate {
  long long count = 0;
  std::int64_t total_ns = 0;
  int n_slots = 0;  ///< >0 when at least one span carried enrichment
  const char* const* slot_names = nullptr;
  std::array<std::int64_t, kMaxSpanSlots> slots{};
};

std::map<std::string, SpanAggregate> aggregate_spans() {
  std::map<std::string, SpanAggregate> agg;
  for (const Event& e : events()) {
    SpanAggregate& a = agg[e.name];
    a.count += 1;
    a.total_ns += e.dur_ns;
    if (e.n_slots > 0) {
      a.n_slots = e.n_slots;
      a.slot_names = e.slot_names;
      for (int i = 0; i < e.n_slots; ++i) {
        a.slots[static_cast<std::size_t>(i)] +=
            e.slots[static_cast<std::size_t>(i)];
      }
    }
  }
  return agg;
}

bool any_enriched(const std::map<std::string, SpanAggregate>& agg) {
  for (const auto& [name, a] : agg) {
    if (a.n_slots > 0) return true;
  }
  return false;
}

}  // namespace

const char* to_string(Counter c) {
  switch (c) {
    case Counter::CellsUpdated: return "cells_updated";
    case Counter::SourcesInjected: return "sources_injected";
    case Counter::ReceiversInterpolated: return "receivers_interpolated";
    case Counter::BlocksExecuted: return "blocks_executed";
    case Counter::TilesExecuted: return "tiles_executed";
    case Counter::BandsExecuted: return "bands_executed";
    case Counter::HaloCellsTouched: return "halo_cells_touched";
    case Counter::CheckpointBytes: return "checkpoint_bytes";
    case Counter::AutotuneTrials: return "autotune_trials";
    case Counter::JitCompiles: return "jit_compiles";
  }
  return "?";
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void count(Counter c, long long delta) {
  if (delta == 0) return;
  // A tap keeps the counters live even while full tracing is off, so an
  // obs-only run (flight recorder / OpenMetrics, no Chrome trace) still
  // produces real work totals.
  const EventTap* tap = g_tap.load(std::memory_order_acquire);
  if (!enabled() && tap == nullptr) return;
  local_state().counters[static_cast<std::size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
  if (tap != nullptr && tap->counter != nullptr) {
    tap->counter(tap->ctx, c, delta);
  }
}

long long value(Counter c) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  compact_locked(r);
  long long total = r.retired_counters[static_cast<std::size_t>(c)];
  for (const auto& s : r.states) {
    total += s->counters[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  return total;
}

CounterSnapshot snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  compact_locked(r);
  CounterSnapshot out = r.retired_counters;
  for (const auto& s : r.states) {
    for (int c = 0; c < kNumCounters; ++c) {
      out[static_cast<std::size_t>(c)] +=
          s->counters[static_cast<std::size_t>(c)].load(
              std::memory_order_relaxed);
    }
  }
  return out;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& s : r.states) {
    const std::lock_guard<std::mutex> state_lock(s->mu);
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    s->events.clear();
  }
  r.retired_counters.fill(0);
  r.retired_events.clear();
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, const char* cat)
    : name_(name), cat_(cat), start_ns_(0), arg_(0), has_arg_(false),
      active_(enabled()) {
  tap_ = g_tap.load(std::memory_order_acquire);
  if (active_ || tap_ != nullptr) {
    if (active_) {
      enricher_ = g_enricher.load(std::memory_order_acquire);
      if (enricher_ != nullptr) enricher_->sample(slot_start_.data());
    }
    if (tap_ != nullptr && tap_->span_enter != nullptr) {
      tap_->span_enter(tap_->ctx, name_, cat_, arg_, has_arg_);
    }
    start_ns_ = now_ns();
  }
}

ScopedSpan::ScopedSpan(const char* name, const char* cat, std::int64_t arg)
    : name_(name), cat_(cat), start_ns_(0), arg_(arg), has_arg_(true),
      active_(enabled()) {
  tap_ = g_tap.load(std::memory_order_acquire);
  if (active_ || tap_ != nullptr) {
    if (active_) {
      enricher_ = g_enricher.load(std::memory_order_acquire);
      if (enricher_ != nullptr) enricher_->sample(slot_start_.data());
    }
    if (tap_ != nullptr && tap_->span_enter != nullptr) {
      tap_->span_enter(tap_->ctx, name_, cat_, arg_, has_arg_);
    }
    start_ns_ = now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!active_ && tap_ == nullptr) return;
  const std::int64_t end = now_ns();
  if (tap_ != nullptr && tap_->span_exit != nullptr) {
    tap_->span_exit(tap_->ctx, name_, start_ns_, end - start_ns_);
  }
  if (!active_) return;
  Event ev{name_, cat_, 0, start_ns_, end - start_ns_, arg_, has_arg_};
  if (enricher_ != nullptr) {
    std::array<std::int64_t, kMaxSpanSlots> now{};
    enricher_->sample(now.data());
    ev.n_slots = std::min(enricher_->n_slots, kMaxSpanSlots);
    ev.slot_names = enricher_->slot_names;
    for (int i = 0; i < ev.n_slots; ++i) {
      ev.slots[static_cast<std::size_t>(i)] =
          std::max<std::int64_t>(0, now[static_cast<std::size_t>(i)] -
                                        slot_start_[static_cast<std::size_t>(i)]);
    }
  }
  ThreadState& s = local_state();
  const std::lock_guard<std::mutex> lock(s.mu);
  ev.tid = s.tid;
  s.events.push_back(ev);
}

void set_span_enricher(const SpanEnricher* enricher) {
  g_enricher.store(enricher, std::memory_order_release);
}

const SpanEnricher* span_enricher() {
  return g_enricher.load(std::memory_order_acquire);
}

void set_event_tap(const EventTap* tap) {
  g_tap.store(tap, std::memory_order_release);
}

const EventTap* event_tap() {
  return g_tap.load(std::memory_order_acquire);
}

std::vector<Event> events() {
  std::vector<Event> out;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  compact_locked(r);
  out = r.retired_events;
  for (const auto& s : r.states) {
    const std::lock_guard<std::mutex> state_lock(s->mu);
    out.insert(out.end(), s->events.begin(), s->events.end());
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.tid < b.tid;
  });
  return out;
}

void write_chrome_trace(std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events()) {
    os << (first ? "\n" : ",\n");
    first = false;
    write_trace_event(os, e);
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  write_counter_fields(os, snapshot());
  os << "}}\n";
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return static_cast<bool>(os);
}

void write_metrics_csv(std::ostream& os) {
  const std::map<std::string, SpanAggregate> agg = aggregate_spans();
  os << "kind,name,value\n";
  // Schema marker only in v2 (enriched) mode: the v1 byte stream is a
  // golden-test contract.
  if (any_enriched(agg)) os << "schema,version,2\n";
  write_counter_rows(os, snapshot());
  for (const auto& [name, a] : agg) {
    os << "span_count," << name << "," << a.count << "\n";
    os << "span_ms," << name << ","
       << static_cast<double>(a.total_ns) / 1e6 << "\n";
    for (int i = 0; i < a.n_slots; ++i) {
      os << "span_pmu_" << a.slot_names[i] << "," << name << ","
         << a.slots[static_cast<std::size_t>(i)] << "\n";
    }
  }
}

void write_metrics_json(std::ostream& os) {
  const std::map<std::string, SpanAggregate> agg = aggregate_spans();
  os << "{";
  if (any_enriched(agg)) os << "\"schema_version\":2,";
  os << "\"counters\":{";
  write_counter_fields(os, snapshot());
  os << "},\"spans\":{";
  bool first = true;
  for (const auto& [name, a] : agg) {
    if (!first) os << ",";
    first = false;
    write_json_string(os, name.c_str());
    os << ":{\"count\":" << a.count
       << ",\"total_ms\":" << static_cast<double>(a.total_ns) / 1e6;
    if (a.n_slots > 0) {
      os << ",\"pmu\":{";
      for (int i = 0; i < a.n_slots; ++i) {
        if (i != 0) os << ",";
        write_json_string(os, a.slot_names[i]);
        os << ":" << a.slots[static_cast<std::size_t>(i)];
      }
      os << "}";
    }
    os << "}";
  }
  os << "}}\n";
}

bool write_metrics(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    write_metrics_csv(os);
  } else {
    write_metrics_json(os);
  }
  return static_cast<bool>(os);
}

namespace {

/// Crash-flush state for the armed Session. Paths and descriptors are set
/// at arm time (before any fault can fire the hooks) and only cleared
/// after the flushed flag is already set, so the handlers never race a
/// mutation.
struct CrashFlush {
  std::string trace_path;
  std::string metrics_path;
  int trace_fd = -1;  ///< opened at arm time for the signal path
  int metrics_fd = -1;
  bool metrics_csv = false;
  std::atomic<bool> flushed{true};  ///< true: nothing (left) to write
  bool hooks_installed = false;
  char buf[8192];  ///< the signal path's output buffer
};

CrashFlush& crash_flush_state() {
  static CrashFlush cf;
  return cf;
}

#if defined(TEMPEST_TRACE_HAVE_SIGNALS)
void close_crash_fds(CrashFlush& cf) {
  if (cf.trace_fd >= 0) ::close(cf.trace_fd);
  if (cf.metrics_fd >= 0) ::close(cf.metrics_fd);
  cf.trace_fd = cf.metrics_fd = -1;
}

/// Async-signal-safe sink: formats into the preallocated CrashFlush
/// buffer and drains it with write(2). No allocation, no locale, no stdio.
class SignalSink {
 public:
  SignalSink(int fd, char* buf, std::size_t cap)
      : fd_(fd), buf_(buf), cap_(cap) {}
  ~SignalSink() { flush(); }
  SignalSink(const SignalSink&) = delete;
  SignalSink& operator=(const SignalSink&) = delete;

  SignalSink& operator<<(char c) {
    if (len_ == cap_) flush();
    buf_[len_++] = c;
    return *this;
  }
  SignalSink& operator<<(const char* s) {
    for (; *s != '\0'; ++s) *this << *s;
    return *this;
  }
  SignalSink& operator<<(long long v) {
    char digits[24];
    int n = 0;
    const bool neg = v < 0;
    unsigned long long u = neg ? 0ull - static_cast<unsigned long long>(v)
                               : static_cast<unsigned long long>(v);
    do {
      digits[n++] = static_cast<char>('0' + u % 10);
      u /= 10;
    } while (u != 0);
    if (neg) *this << '-';
    while (n > 0) *this << digits[--n];
    return *this;
  }
  void flush() {
    std::size_t done = 0;
    while (done < len_) {
      const ssize_t w = ::write(fd_, buf_ + done, len_ - done);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) break;
      done += static_cast<std::size_t>(w);
    }
    len_ = 0;
  }

 private:
  int fd_;
  char* buf_;
  std::size_t cap_;
  std::size_t len_ = 0;
};

/// The signal path's flush: the Chrome trace (unsorted: spans in buffers
/// it can lock without blocking) and the counter totals, written to the
/// descriptors opened at arm time. Locks are only try-locked — the
/// faulting thread may hold one — and whatever is busy is left out. Span
/// aggregates need allocation, so the crash-time metrics carry counters
/// only.
void crash_flush_from_signal(CrashFlush& cf) {
  Registry& r = registry();
  const bool have_registry = r.mu.try_lock();
  CounterSnapshot counters{};
  if (have_registry) {
    counters = r.retired_counters;
    for (const auto& st : r.states) {
      for (int c = 0; c < kNumCounters; ++c) {
        counters[static_cast<std::size_t>(c)] +=
            st->counters[static_cast<std::size_t>(c)].load(
                std::memory_order_relaxed);
      }
    }
  }
  if (cf.trace_fd >= 0) {
    SignalSink out(cf.trace_fd, cf.buf, sizeof(cf.buf));
    out << "{\"traceEvents\":[";
    bool first = true;
    auto event = [&](const Event& e) {
      out << (first ? "\n" : ",\n");
      first = false;
      write_trace_event(out, e);
    };
    if (have_registry) {
      for (const Event& e : r.retired_events) event(e);
      for (const auto& st : r.states) {
        if (!st->mu.try_lock()) continue;
        for (const Event& e : st->events) event(e);
        st->mu.unlock();
      }
    }
    out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
    if (have_registry) write_counter_fields(out, counters);
    out << "}}\n";
  }
  if (cf.metrics_fd >= 0) {
    SignalSink out(cf.metrics_fd, cf.buf, sizeof(cf.buf));
    if (cf.metrics_csv) {
      out << "kind,name,value\n";
      if (have_registry) write_counter_rows(out, counters);
    } else {
      out << "{\"counters\":{";
      if (have_registry) write_counter_fields(out, counters);
      out << "},\"spans\":{}}\n";
    }
  }
  if (have_registry) r.mu.unlock();
}

void crash_signal_handler(int sig) {
  const int saved_errno = errno;
  CrashFlush& cf = crash_flush_state();
  // The flushed exchange makes a double fault inside the flush fall
  // straight through to the re-raise.
  if (!cf.flushed.exchange(true, std::memory_order_acq_rel)) {
    crash_flush_from_signal(cf);
  }
  errno = saved_errno;
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}
#endif

/// Install the atexit + fatal-signal hooks, once per process. A signal
/// handler is installed only where the current disposition is the default
/// one — sanitizer runtimes (ASan's SEGV machinery) and application
/// handlers keep theirs.
void install_crash_hooks() {
  CrashFlush& cf = crash_flush_state();
  if (cf.hooks_installed) return;
  cf.hooks_installed = true;
  std::atexit([] { crash_flush_now(); });
#if defined(TEMPEST_TRACE_HAVE_SIGNALS)
  const int fatal[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};
  for (const int sig : fatal) {
    struct sigaction current {};
    if (sigaction(sig, nullptr, &current) != 0) continue;
    const bool is_default = (current.sa_flags & SA_SIGINFO) == 0 &&
                            current.sa_handler == SIG_DFL;
    if (!is_default) continue;
    struct sigaction action {};
    action.sa_handler = crash_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(sig, &action, nullptr);
  }
#endif
}

}  // namespace

void crash_flush_now() {
  CrashFlush& cf = crash_flush_state();
  if (cf.flushed.exchange(true, std::memory_order_acq_rel)) return;
  if (!cf.trace_path.empty()) write_chrome_trace(cf.trace_path);
  if (!cf.metrics_path.empty()) write_metrics(cf.metrics_path);
}

Session::Session(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)) {
  if (!trace_path_.empty() || !metrics_path_.empty()) {
    reset();
    set_enabled(true);
    CrashFlush& cf = crash_flush_state();
    cf.trace_path = trace_path_;
    cf.metrics_path = metrics_path_;
#if defined(TEMPEST_TRACE_HAVE_SIGNALS)
    // The signal path may not open files: it gets its descriptors now.
    close_crash_fds(cf);
    const int flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
    if (!trace_path_.empty()) {
      cf.trace_fd = ::open(trace_path_.c_str(), flags, 0644);
    }
    if (!metrics_path_.empty()) {
      cf.metrics_fd = ::open(metrics_path_.c_str(), flags, 0644);
    }
    cf.metrics_csv = metrics_path_.size() >= 4 &&
                     metrics_path_.compare(metrics_path_.size() - 4, 4,
                                           ".csv") == 0;
#endif
    install_crash_hooks();
    cf.flushed.store(false, std::memory_order_release);
  }
}

Session::~Session() {
  // Disarm the crash hook before writing: the destructor pass is the
  // complete one, and a subsequent atexit flush must not overwrite it.
  CrashFlush& cf = crash_flush_state();
  cf.flushed.store(true, std::memory_order_release);
#if defined(TEMPEST_TRACE_HAVE_SIGNALS)
  if (!trace_path_.empty() || !metrics_path_.empty()) close_crash_fds(cf);
#endif
  if (!trace_path_.empty()) write_chrome_trace(trace_path_);
  if (!metrics_path_.empty()) write_metrics(metrics_path_);
}

}  // namespace tempest::trace
