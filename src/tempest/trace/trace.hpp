#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tempest::trace {

/// Low-overhead structured tracing and metrics for the execution schedules.
///
/// Two primitives:
///   * monotonic counters — exact work accounting (cells updated, sources
///     injected, ...) accumulated in thread-local buffers. The counters are
///     the runtime's ground truth of *what a schedule did*, and the
///     cross-schedule equivalence tests assert on them (every legal schedule
///     must update exactly the same number of cells as the reference sweep);
///   * scoped spans — named wall-clock intervals (one per timestep phase,
///     wavefront band, autotune trial, JIT compile, ...) emitted to a Chrome
///     `trace_event` JSON sink loadable in Perfetto / chrome://tracing.
///
/// Cost model: everything is gated on a single relaxed atomic flag. With
/// tracing runtime-disabled (the default) a span is one load+branch and a
/// counter increment is one load+branch — unmeasurable next to a stencil
/// block. Compiling with TEMPEST_TRACE_DISABLED (CMake -DTEMPEST_TRACE=OFF)
/// removes even that: the instrumentation macros expand to nothing.
///
/// Sinks drain the thread-local buffers; call them from serial code (after
/// the parallel run), not from inside an instrumented region.

/// The monotonic work counters. Semantics (schedule-independent, so that
/// any two legal schedules of the same problem agree):
///   CellsUpdated          grid cells written by a stencil kernel application
///                         (elastic counts each half-step sweep; TTI counts
///                         the coupled p/q update as one cell)
///   SourcesInjected       grid-point updates applied by source injection
///                         (naive and fused paths agree whenever no two
///                         sources share a support grid point — the fused
///                         path pre-sums shared support contributions)
///   ReceiversInterpolated weight applications (receiver, support point)
///                         performed by receiver interpolation
///   BlocksExecuted        space blocks handed to a kernel
///   TilesExecuted         band-plan tasks that computed anything, once each:
///                         space-time tiles (wavefront) / triangles (diamond)
///   BandsExecuted         completed time bands of a temporally blocked run
///   HaloCellsTouched      analytic cross-stencil halo footprint of executed
///                         blocks (2R per face pair), a locality proxy
///   CheckpointBytes       bytes persisted by the checkpointer
///   AutotuneTrials        tile configurations measured by the autotuner
///   JitCompiles           JIT compiler invocations (including retries)
enum class Counter : int {
  CellsUpdated = 0,
  SourcesInjected,
  ReceiversInterpolated,
  BlocksExecuted,
  TilesExecuted,
  BandsExecuted,
  HaloCellsTouched,
  CheckpointBytes,
  AutotuneTrials,
  JitCompiles,
};
inline constexpr int kNumCounters = 10;

[[nodiscard]] const char* to_string(Counter c);

/// Global runtime switch. Disabled by default; when disabled, counters do
/// not accumulate and spans record nothing.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Add `delta` to counter `c` on this thread (no-op while disabled).
void count(Counter c, long long delta);

/// Aggregate value of `c` across all threads since the last reset().
[[nodiscard]] long long value(Counter c);

/// All counters at once (index by static_cast<int>(Counter)).
using CounterSnapshot = std::array<long long, kNumCounters>;
[[nodiscard]] CounterSnapshot snapshot();

/// Zero every counter and drop every recorded span on every thread, and
/// restart the trace clock.
void reset();

/// Optional span enrichment: an installed enricher is sampled at span
/// start and end, and the per-slot deltas ride in the recorded Event (and
/// from there into the sinks). The sampler runs on the span's thread —
/// tempest::perf::pmu uses this to attach per-thread hardware-counter
/// deltas to every instrumented span. slot_names/sample must have static
/// storage duration; install/clear from serial code only.
inline constexpr int kMaxSpanSlots = 12;
struct SpanEnricher {
  int n_slots = 0;                          ///< <= kMaxSpanSlots
  const char* const* slot_names = nullptr;  ///< n_slots entries
  void (*sample)(std::int64_t out[]) = nullptr;  ///< cumulative values
};

/// Install (or clear, with nullptr) the span enrichment hook.
void set_span_enricher(const SpanEnricher* enricher);
[[nodiscard]] const SpanEnricher* span_enricher();

/// Event tap: a set of raw callbacks fired synchronously on the recording
/// thread for every span boundary and counter delta — the feed the obs
/// flight recorder drinks from. Unlike the in-memory buffers the tap fires
/// even while enabled() is false, so a black box can observe a run without
/// paying for full span buffering; counters likewise accumulate whenever a
/// tap is installed. Callbacks must be wait-free-ish and reentrant-safe
/// (they run inside instrumented regions). The struct must have static
/// storage duration; install/clear from serial code only.
struct EventTap {
  void* ctx = nullptr;
  void (*span_enter)(void* ctx, const char* name, const char* cat,
                     std::int64_t arg, bool has_arg) = nullptr;
  void (*span_exit)(void* ctx, const char* name, std::int64_t start_ns,
                    std::int64_t dur_ns) = nullptr;
  void (*counter)(void* ctx, Counter c, long long delta) = nullptr;
};

/// Install (or clear, with nullptr) the event tap.
void set_event_tap(const EventTap* tap);
[[nodiscard]] const EventTap* event_tap();

/// One completed span. Names/categories are string literals at the call
/// sites (never freed, never copied on the hot path).
struct Event {
  const char* name;
  const char* cat;
  int tid;               ///< small sequential id of the recording thread
  std::int64_t ts_ns;    ///< start, ns since the last reset()
  std::int64_t dur_ns;   ///< duration in ns
  std::int64_t arg;      ///< optional argument (timestep, band end, ...)
  bool has_arg;
  int n_slots = 0;       ///< enrichment slot count (0: not enriched)
  const char* const* slot_names = nullptr;  ///< static storage
  std::array<std::int64_t, kMaxSpanSlots> slots{};  ///< per-slot deltas
};

/// RAII span: records [construction, destruction) under `name` when tracing
/// is enabled. Prefer the TEMPEST_TRACE_SPAN* macros, which compile out.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat);
  ScopedSpan(const char* name, const char* cat, std::int64_t arg);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t start_ns_;
  std::int64_t arg_;
  bool has_arg_;
  bool active_;
  const SpanEnricher* enricher_ = nullptr;  ///< non-null: sampled at start
  const EventTap* tap_ = nullptr;           ///< non-null: fires enter/exit
  std::array<std::int64_t, kMaxSpanSlots> slot_start_{};
};

/// Snapshot of every span recorded since the last reset(), across all
/// threads, sorted by start time. Call from serial code.
[[nodiscard]] std::vector<Event> events();

/// Chrome trace_event JSON ("X" complete events + an `otherData` object
/// carrying the counter totals). Loadable in Perfetto / chrome://tracing.
void write_chrome_trace(std::ostream& os);
bool write_chrome_trace(const std::string& path);

/// Flat metrics: every counter total plus per-span-name count/total-ms
/// aggregates, as CSV (`kind,name,value` rows) or a JSON object. When any
/// recorded span carries enrichment slots the sinks emit schema v2: a
/// `schema_version` marker plus per-span-name per-slot totals (CSV rows
/// `span_pmu_<slot>,<span>,<total>`, JSON `"pmu"` objects). With no
/// enrichment the output is byte-identical to the v1 schema.
void write_metrics_csv(std::ostream& os);
void write_metrics_json(std::ostream& os);
bool write_metrics(const std::string& path);  ///< .csv -> CSV, else JSON

/// Flag-driven session for the example/bench binaries: enables tracing when
/// either path is non-empty, and writes the requested sinks (Chrome trace
/// JSON to `trace_path`, metrics to `metrics_path`) on destruction.
///
/// Crash flush: constructing a Session also arms a best-effort crash hook
/// (std::atexit plus fatal-signal handlers for SIGABRT/SIGSEGV/SIGBUS/
/// SIGFPE/SIGILL, installed only where no other handler is present so
/// sanitizer runtimes keep theirs). If the process dies before the
/// destructor runs, the hook writes whatever spans have completed — a
/// truncated-but-valid trace instead of nothing. The signal handler is
/// async-signal-safe: it writes through descriptors the Session opened
/// (creating the files) at construction, from a preallocated buffer, with write(2); it leaves out
/// buffers another thread holds locked, and its metrics carry the counter
/// totals only (span aggregates would need allocation). The flush is
/// idempotent: a clean destructor pass disarms it.
class Session {
 public:
  Session(std::string trace_path, std::string metrics_path);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

/// Write the armed Session's sinks immediately if they have not been
/// written yet (no-op otherwise). Exposed for the crash-flush regression
/// test; called automatically from the atexit/signal hooks.
void crash_flush_now();

}  // namespace tempest::trace

// Instrumentation macros: the only spelling used at call sites, so that
// -DTEMPEST_TRACE=OFF (which defines TEMPEST_TRACE_DISABLED) removes the
// instrumentation entirely.
#define TEMPEST_TRACE_CONCAT_IMPL(a, b) a##b
#define TEMPEST_TRACE_CONCAT(a, b) TEMPEST_TRACE_CONCAT_IMPL(a, b)

#if defined(TEMPEST_TRACE_DISABLED)
#define TEMPEST_TRACE_SPAN(name, cat) ((void)0)
#define TEMPEST_TRACE_SPAN_ARG(name, cat, arg) ((void)0)
#define TEMPEST_TRACE_COUNT(counter, n) ((void)0)
#else
#define TEMPEST_TRACE_SPAN(name, cat)                                       \
  ::tempest::trace::ScopedSpan TEMPEST_TRACE_CONCAT(tempest_trace_span_,    \
                                                    __LINE__)(name, cat)
#define TEMPEST_TRACE_SPAN_ARG(name, cat, arg)                              \
  ::tempest::trace::ScopedSpan TEMPEST_TRACE_CONCAT(tempest_trace_span_,    \
                                                    __LINE__)(              \
      name, cat, static_cast<std::int64_t>(arg))
#define TEMPEST_TRACE_COUNT(counter, n)                                     \
  ::tempest::trace::count(::tempest::trace::Counter::counter,               \
                          static_cast<long long>(n))
#endif
