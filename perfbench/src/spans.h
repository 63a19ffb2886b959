// Span and accumulator tracing owned by the benchmark, not the library:
// every timing here is taken around calls into websra's public API from
// the benchmark's own files, so the traced program is the same binary
// code as the untraced one.
//
// Batch-level calls (a chunk read, a chunk parse, an OfferRefs, an admin
// round trip) become Spans kept in memory and exported when the run
// ends. Per-record calls (OnRequest, the emit callback, the sink's
// Accept) would produce millions of spans, so they add into one
// ThreadAcc per thread instead.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), steal excluded.
std::int64_t CpuNs();
/// CPU time of the calling thread.
std::int64_t ThreadCpuNs();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same SpanLog, -1 for a root.
  int parent = -1;
  /// Small per-thread number (see ThreadNumber), not an OS id.
  int thread = 0;
};

/// Dense per-process thread number, assigned on first use.
int ThreadNumber();

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers. Children may overlap
/// each other (spans from other threads naming this parent) and may
/// stick out of the parent; only the covered part inside counts.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sums SelfTimesNs by span name over spans[first...] (children before
/// `first` are ignored, as they cannot belong to later spans).
std::map<std::string, std::int64_t> SelfTimeByNameNs(
    const std::vector<Span>& spans, std::size_t first = 0);

/// Thread-safe in-memory span store. Begin/End pairs may nest on one
/// thread; a span on another thread names its parent explicitly.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent);
  void End(int id);
  std::vector<Span> Snapshot() const;
  std::size_t size() const;
  /// Chrome trace-event JSON ("X" events, microseconds), one object.
  std::string ChromeTraceJson() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op that never reads the clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent)
      : log_(log), id_(log == nullptr ? -1 : log->Begin(name, parent)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Per-record timings of one thread. Written only by its owner thread;
/// read only after that thread has been joined.
struct ThreadAcc {
  /// OnRequest + Flush wall time, emit callbacks included.
  std::int64_t sessionize_ns = 0;
  /// Time inside the EmitFn the engine handed the sessionizer: waiting
  /// for and holding the emit hub (sink and miner hand-off included).
  std::int64_t emit_ns = 0;
  /// Time inside the benchmark sink's Accept (under the hub lock).
  std::int64_t sink_ns = 0;
  std::uint64_t records = 0;
};

/// Hands each thread its ThreadAcc for the current generation. Reset()
/// starts a new generation (one per measured iteration); accumulators
/// of earlier generations stay owned here until the next Reset.
class AccRegistry {
 public:
  ThreadAcc* Mine();
  /// The accumulators of the current generation, one per thread that
  /// touched the registry. Call only after those threads are joined.
  /// Reset likewise runs only while no thread of the old generation is
  /// still recording.
  std::vector<ThreadAcc> Collect() const;
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::atomic<std::uint64_t> generation_{1};
  std::vector<std::unique_ptr<ThreadAcc>> accs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
