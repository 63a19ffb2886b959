// wum::obs tracing — per-thread ring-buffer span recording with Chrome
// trace-event JSON export, answering the questions a metrics snapshot
// cannot: *where* one record stalled, *which* shard caused a drain
// spike, *what order* the pipeline stages actually ran in.
//
// Design, mirroring wum/obs/metrics.h:
//   * `Tracer` is a trivially copyable pointer-sized handle. A
//     default-constructed handle is *disabled*: every span is a no-op
//     behind a single predictable branch and `ScopedSpan` never reads
//     the clock, so instrumented code costs ~nothing when no recorder
//     is attached.
//   * The hot path is lock-free: each recording thread owns a private
//     ring buffer of atomic slots; a push is a handful of relaxed
//     stores plus one release publish, with no CAS and no contention.
//     The recorder mutex guards only thread registration and export.
//   * Memory is bounded: the ring overwrites its oldest events
//     (drop-oldest), and the number of overwritten events is tracked —
//     and mirrored into the `obs.trace.dropped_events` counter when a
//     MetricRegistry is attached — so a truncated trace is detectable,
//     never silent.
//   * Span names must be string literals (or otherwise outlive the
//     recorder): slots store the pointer, not a copy.
//
// Export is the Chrome trace-event JSON format: load the file in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. Every event
// carries `shard` and `seq` args identifying which shard processed the
// record and the stage-specific sequence number (see
// docs/observability.md for the stage → seq mapping); spans of batched
// stages add a `count` arg.

#ifndef WUM_OBS_TRACE_H_
#define WUM_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wum/common/result.h"
#include "wum/obs/metrics.h"

namespace wum {
namespace obs {

class Tracer;

/// One exported trace event (a completed span, or an instant event when
/// `dur_us == 0` and `instant` is set).
struct TraceEvent {
  const char* name = "";
  /// 1-based index of the recording thread, in registration order.
  std::uint64_t tid = 0;
  /// Start time in microseconds since the recorder's construction.
  double ts_us = 0.0;
  double dur_us = 0.0;
  bool instant = false;
  /// Shard that handled the record (0 for engine-global stages).
  std::uint64_t shard = 0;
  /// Stage-specific sequence number (record offset, session count,
  /// attempt number, checkpoint epoch — per-stage meaning documented in
  /// docs/observability.md).
  std::uint64_t seq = 0;
  /// Items one span covers when its stage works in batches (the emit
  /// span's session count); 0 when the stage has none, and then left
  /// out of the exported args.
  std::uint64_t count = 0;
};

/// Owns the per-thread ring buffers. Create one per run, hand
/// `Tracer(&recorder)` handles to instrumented components, export after
/// the run with `WriteChromeTrace`. Thread-safe; handles must not
/// outlive the recorder (same lifetime rule as MetricRegistry cells).
class TraceRecorder {
 public:
  struct Options {
    /// Ring capacity per recording thread, in events. Oldest events
    /// are overwritten beyond this (drop-oldest policy).
    std::size_t events_per_thread = 1u << 16;
    /// Optional registry for the `obs.trace.*` mirrors (recorded /
    /// dropped event counts, registered thread count).
    MetricRegistry* metrics = nullptr;
  };

  TraceRecorder() : TraceRecorder(Options{}) {}
  explicit TraceRecorder(Options options);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Events currently retained, oldest-dropped excluded, sorted by
  /// start time. Consistent when recording threads are quiescent (the
  /// normal case: export runs after Finish); concurrent writers can at
  /// worst tear the handful of events written during the copy.
  std::vector<TraceEvent> Snapshot() const;

  /// Chrome trace-event JSON ("traceEvents" array of complete/instant
  /// events plus thread-name metadata), loadable in Perfetto.
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`.
  Status WriteChromeTrace(const std::string& path) const;

  /// Total events ever recorded (including since-overwritten ones).
  std::uint64_t events_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// Events lost to the drop-oldest policy.
  std::uint64_t events_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Distinct threads that have recorded at least one event.
  std::size_t threads_registered() const;

 private:
  friend class Tracer;

  struct ThreadBuffer;

  /// The calling thread's buffer, registering it on first use. A
  /// thread-local cache makes repeat calls mutex-free.
  ThreadBuffer* BufferForThisThread();

  void Push(const char* name, double ts_us, double dur_us, bool instant,
            std::uint64_t shard, std::uint64_t seq, std::uint64_t count);

  const std::size_t capacity_;
  const std::uint64_t id_;     // distinguishes recorders in thread caches
  const double epoch_us_;      // NowMicros() at construction; ts origin
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  Counter recorded_mirror_;
  Counter dropped_mirror_;
  Gauge threads_mirror_;
  mutable std::mutex mutex_;   // guards buffers_ (registration + export)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Nullable handle through which components record spans. Disabled
/// (every call a no-op, clock untouched) when default-made or built
/// from nullptr — the trace analogue of a disabled Counter.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceRecorder* recorder) : recorder_(recorder) {}

  bool enabled() const { return recorder_ != nullptr; }

  /// Records a completed span. `start_us` is absolute (internal::
  /// NowMicros timebase); the recorder rebases it onto its epoch.
  void RecordComplete(const char* name, double start_us, double dur_us,
                      std::uint64_t shard, std::uint64_t seq,
                      std::uint64_t count = 0) {
    if (recorder_ == nullptr) return;
    recorder_->Push(name, start_us, dur_us, /*instant=*/false, shard, seq,
                    count);
  }

  /// Records a zero-duration instant event stamped "now". Reads the
  /// clock only when enabled.
  void Instant(const char* name, std::uint64_t shard, std::uint64_t seq) {
    if (recorder_ == nullptr) return;
    recorder_->Push(name, internal::NowMicros(), 0.0, /*instant=*/true,
                    shard, seq, /*count=*/0);
  }

 private:
  TraceRecorder* recorder_ = nullptr;
};

/// Null-safe handle maker, mirroring CounterIn: nullptr yields a
/// disabled tracer (the "tracing off" mode).
inline Tracer TracerIn(TraceRecorder* recorder) { return Tracer(recorder); }

/// RAII span: starts timing at construction, records on destruction.
/// When the tracer is disabled the clock is never read. `name` must be
/// a string literal (or outlive the recorder).
class ScopedSpan {
 public:
  ScopedSpan(Tracer tracer, const char* name, std::uint64_t shard = 0,
             std::uint64_t seq = 0)
      : tracer_(tracer), name_(name), shard_(shard), seq_(seq) {
    if (tracer_.enabled()) start_us_ = internal::NowMicros();
  }

  ~ScopedSpan() {
    if (!tracer_.enabled()) return;
    tracer_.RecordComplete(name_, start_us_,
                           internal::NowMicros() - start_us_, shard_, seq_,
                           count_);
  }

  /// Refine the span's identity after construction (e.g. once the
  /// target shard is known mid-scope).
  void set_shard(std::uint64_t shard) { shard_ = shard; }
  void set_seq(std::uint64_t seq) { seq_ = seq; }
  void set_count(std::uint64_t count) { count_ = count; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer tracer_;
  const char* name_;
  std::uint64_t shard_;
  std::uint64_t seq_;
  std::uint64_t count_ = 0;
  double start_us_ = 0.0;
};

}  // namespace obs
}  // namespace wum

#endif  // WUM_OBS_TRACE_H_
