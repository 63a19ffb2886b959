// wum::obs — the observability layer: a MetricRegistry handing out named
// Counter / Gauge / Histogram handles, plus a ScopedTimer profiling hook.
//
// Design constraints (see docs/observability.md):
//   * Hot-path writes are lock-free relaxed atomics; the registry mutex
//     guards only metric *creation* and snapshotting.
//   * Handles are trivially copyable pointer-sized values. A
//     default-constructed handle is *disabled*: every write is a no-op
//     behind a single predictable branch and ScopedTimer never touches
//     the clock, so instrumented code costs ~nothing when no registry is
//     attached (the "null registry" mode).
//   * Cells live as long as the registry; handles must not outlive it.
//   * Snapshot() is consistent enough for throughput accounting (each
//     cell is read atomically; cross-cell skew is possible while writers
//     run) and deterministic: entries are sorted by name.

#ifndef WUM_OBS_METRICS_H_
#define WUM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "wum/common/result.h"

namespace wum {
namespace obs {

class MetricRegistry;

namespace internal {

/// Clock source used by every obs timing primitive (ScopedTimer,
/// ScopedSpan, Tracer::Instant). Returns monotonic microseconds.
using ClockMicrosFn = double (*)();

/// Monotonic "now" in microseconds. Reads the test override when one is
/// installed, std::chrono::steady_clock otherwise. Timing primitives
/// call this *only* while enabled, which is what makes "disabled
/// handles never read the clock" a testable property.
double NowMicros();

/// Installs `fn` as the clock (nullptr restores steady_clock). Tests
/// only; not meant for concurrent installation while timers run.
void SetClockForTesting(ClockMicrosFn fn);

/// JSON string escaping shared by the metrics and trace exporters.
std::string EscapeJson(const std::string& text);

/// Shortest round-trip rendering of a finite double ("0" when not
/// finite — JSON has no Infinity literal).
std::string RenderDouble(double value);

}  // namespace internal

/// Monotonically increasing event count. Disabled when default-made.
class Counter {
 public:
  Counter() = default;

  void Increment(std::uint64_t delta = 1) {
    if (cell_ != nullptr) cell_->fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}

  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Last-written (or max-tracked) value, e.g. a queue-depth high
/// watermark. Disabled when default-made.
class Gauge {
 public:
  Gauge() = default;

  void Set(std::uint64_t value) {
    if (cell_ != nullptr) cell_->store(value, std::memory_order_relaxed);
  }

  /// Raises the gauge to `value` if larger (atomic running max).
  void MaxOf(std::uint64_t value) {
    if (cell_ == nullptr) return;
    std::uint64_t seen = cell_->load(std::memory_order_relaxed);
    while (seen < value && !cell_->compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit Gauge(std::atomic<std::uint64_t>* cell) : cell_(cell) {}

  std::atomic<std::uint64_t>* cell_ = nullptr;
};

namespace internal {

/// Backing storage of one histogram: fixed upper-bound buckets plus
/// running count / sum / min / max, all individually atomic.
struct HistogramCell {
  explicit HistogramCell(std::vector<double> upper_bounds);

  /// Records `n` observations of `value` at the cost of one.
  void Observe(double value, std::uint64_t n = 1);

  /// Inclusive upper bounds, strictly increasing; the implicit last
  /// bucket is (+inf).
  const std::vector<double> bounds;
  /// bounds.size() + 1 entries; the last is the overflow bucket.
  std::vector<std::atomic<std::uint64_t>> buckets;
  std::atomic<std::uint64_t> count{0};
  // Doubles updated with CAS loops (no atomic<double>::fetch_add needed).
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};
  std::atomic<double> max{0.0};
};

}  // namespace internal

/// Fixed-bucket value distribution (latencies, sizes). Disabled when
/// default-made.
class Histogram {
 public:
  Histogram() = default;

  /// `n` > 1 records `n` identical observations with one update (a
  /// batch of sessions delivered at the same instant).
  void Observe(double value, std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->Observe(value, n);
  }

  bool enabled() const { return cell_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit Histogram(internal::HistogramCell* cell) : cell_(cell) {}

  internal::HistogramCell* cell_ = nullptr;
};

/// Default latency bucket upper bounds in microseconds: 1us .. ~10s in
/// roughly 1-2-5 steps, suiting both per-record drains and per-user
/// reconstructions.
const std::vector<double>& DefaultLatencyBucketsUs();

/// Point-in-time copy of every registered metric, sorted by name within
/// each kind. Safe to keep after the registry is gone.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    /// bounds.size() + 1 counts; the last is the overflow bucket.
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /// Estimated quantile (0 < q < 1), linearly interpolated inside the
    /// fixed bucket containing rank q·count. The first occupied
    /// bucket's lower edge is tightened to `min` and the overflow
    /// bucket's upper edge to `max` (both are tracked exactly), and the
    /// result is clamped to [min, max]. Resolution is bounded by the
    /// bucket width around the quantile; 0 when the histogram is empty.
    double Quantile(double q) const;

    double p50() const { return Quantile(0.50); }
    double p90() const { return Quantile(0.90); }
    double p99() const { return Quantile(0.99); }
  };

  /// Constant identity metric: an ordered label set rendered as a
  /// value-1 gauge by the Prometheus exporter (`wum_build_info{...} 1`)
  /// and as a string map in JSON. Set via MetricRegistry::SetInfo.
  struct InfoValue {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<InfoValue> infos;

  /// Lookup helpers; return nullptr when the name is absent.
  const CounterValue* FindCounter(const std::string& name) const;
  const GaugeValue* FindGauge(const std::string& name) const;
  const HistogramValue* FindHistogram(const std::string& name) const;

  /// Counter value, 0 when absent (convenient for totals).
  std::uint64_t CounterOrZero(const std::string& name) const;

  /// Sums every counter whose name starts with `prefix` (per-shard
  /// rollups: CounterSumByPrefix("engine.shard") etc.).
  std::uint64_t CounterSumByPrefix(const std::string& prefix) const;

  /// Machine-readable renderings; all are deterministic for a given
  /// snapshot (schema in docs/observability.md).
  std::string ToJson() const;
  std::string ToCsv() const;

  /// ToJson's content on a single line (no trailing newline) — the
  /// JSONL record shape appended by MetricsReporter.
  std::string ToJsonLine() const;
};

/// Writes a snapshot to `path`: CSV when the path ends in ".csv", JSON
/// otherwise.
Status WriteMetricsFile(const MetricsSnapshot& snapshot,
                        const std::string& path);

/// Owns every metric cell. Get* registers on first use and returns the
/// existing cell on repeat calls, so independent components may share a
/// metric by name. Thread-safe; cells have stable addresses for the
/// registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter GetCounter(const std::string& name);
  Gauge GetGauge(const std::string& name);
  /// `upper_bounds` must be strictly increasing and non-empty; it is
  /// ignored (the existing bounds win) when `name` already exists.
  Histogram GetHistogram(
      const std::string& name,
      const std::vector<double>& upper_bounds = DefaultLatencyBucketsUs());

  /// Registers (or replaces) the constant info metric `name` with an
  /// ordered label set — process identity facts like version and config
  /// fingerprint that never change after startup.
  void SetInfo(const std::string& name,
               std::vector<std::pair<std::string, std::string>> labels);

  /// Registers a callback run at the top of every Snapshot(), before
  /// the cells are read — the hook for scrape-time gauges (queue
  /// depths, uptime, watermark skew) that are cheaper to compute on
  /// demand than to maintain on the hot path. Probes must only write
  /// through handles acquired *before* registration: calling Get* or
  /// Snapshot from inside a probe deadlocks on the registry mutex.
  /// Returns an id for RemoveProbe.
  std::size_t AddProbe(std::function<void()> probe);

  /// Unregisters a probe. Components whose probes capture raw pointers
  /// into themselves (the engine does) must remove them before dying —
  /// the registry usually outlives its clients. Unknown ids are a no-op.
  void RemoveProbe(std::size_t id);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> gauges_;
  std::map<std::string, std::unique_ptr<internal::HistogramCell>> histograms_;
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      infos_;
  // Guarded separately from mutex_ so a running probe (which holds no
  // lock) can never deadlock a concurrent Get*.
  mutable std::mutex probe_mutex_;
  std::size_t next_probe_id_ = 1;
  std::vector<std::pair<std::size_t, std::function<void()>>> probes_;
};

/// Null-safe registration helpers: a nullptr registry yields a disabled
/// handle, which is the whole "metrics off" mode.
Counter CounterIn(MetricRegistry* registry, const std::string& name);
Gauge GaugeIn(MetricRegistry* registry, const std::string& name);
Histogram HistogramIn(
    MetricRegistry* registry, const std::string& name,
    const std::vector<double>& upper_bounds = DefaultLatencyBucketsUs());

/// RAII profiling hook: records the scope's wall time in microseconds
/// into a Histogram on destruction. When the histogram is disabled the
/// clock is never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram histogram) : histogram_(histogram) {
    if (histogram_.enabled()) start_us_ = internal::NowMicros();
  }

  ~ScopedTimer() {
    if (!histogram_.enabled()) return;
    histogram_.Observe(internal::NowMicros() - start_us_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram histogram_;
  double start_us_ = 0.0;
};

/// Busy-time accounting for one single-threaded stage: Start/Stop bracket
/// an interval (one batch, one flush) and Stop adds its length to a
/// microsecond Counter. The sub-microsecond remainder carries over to
/// the next interval, so the counter always holds the floor of the exact
/// total however short the intervals are. Disabled (default-made or
/// built on a disabled Counter) it never reads the clock. One writer at
/// a time; the counter itself may be read from anywhere.
class BusyTimer {
 public:
  BusyTimer() = default;
  explicit BusyTimer(Counter counter) : counter_(counter) {}

  bool enabled() const { return counter_.enabled(); }

  /// Clock reading that opens an interval (0 when disabled).
  double Start() const { return enabled() ? internal::NowMicros() : 0.0; }

  /// Closes the interval opened at `start`; returns the clock reading
  /// it took (0 when disabled), for callers that need "now" as well.
  double Stop(double start) {
    if (!enabled()) return 0.0;
    const double now = internal::NowMicros();
    carry_us_ += now - start;
    const auto whole = static_cast<std::uint64_t>(carry_us_);
    if (whole > 0) {
      counter_.Increment(whole);
      carry_us_ -= static_cast<double>(whole);
    }
    return now;
  }

 private:
  Counter counter_;
  double carry_us_ = 0.0;
};

}  // namespace obs
}  // namespace wum

#endif  // WUM_OBS_METRICS_H_
