#include "wum/obs/metrics.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

namespace wum {
namespace obs {
namespace internal {
namespace {

/// Lock-free accumulate for atomic<double> (no fetch_add requirement on
/// floating atomics).
void AtomicAdd(std::atomic<double>* cell, double delta) {
  double seen = cell->load(std::memory_order_relaxed);
  while (!cell->compare_exchange_weak(seen, seen + delta,
                                      std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* cell, double value) {
  double seen = cell->load(std::memory_order_relaxed);
  while (value < seen && !cell->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* cell, double value) {
  double seen = cell->load(std::memory_order_relaxed);
  while (value > seen && !cell->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

std::atomic<ClockMicrosFn> g_clock_override{nullptr};

double SteadyClockMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double NowMicros() {
  const ClockMicrosFn fn = g_clock_override.load(std::memory_order_acquire);
  return fn == nullptr ? SteadyClockMicros() : fn();
}

void SetClockForTesting(ClockMicrosFn fn) {
  g_clock_override.store(fn, std::memory_order_release);
}

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

HistogramCell::HistogramCell(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), buckets(bounds.size() + 1) {
  // Sentinels; Snapshot() normalizes them to 0 while count == 0.
  min.store(std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  max.store(-std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
}

void HistogramCell::Observe(double value, std::uint64_t n) {
  if (n == 0) return;
  std::size_t i = 0;
  while (i < bounds.size() && value > bounds[i]) ++i;
  buckets[i].fetch_add(n, std::memory_order_relaxed);
  count.fetch_add(n, std::memory_order_relaxed);
  AtomicAdd(&sum, value * static_cast<double>(n));
  AtomicMin(&min, value);
  AtomicMax(&max, value);
}

}  // namespace internal

const std::vector<double>& DefaultLatencyBucketsUs() {
  static const std::vector<double>* const kBuckets = new std::vector<double>{
      1,     2,     5,      10,     20,     50,      100,     200,     500,
      1000,  2000,  5000,   10000,  20000,  50000,   100000,  200000,
      500000, 1000000, 2000000, 5000000, 10000000};
  return *kBuckets;
}

Counter MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<std::atomic<std::uint64_t>>(0);
  return Counter(cell.get());
}

Gauge MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<std::atomic<std::uint64_t>>(0);
  return Gauge(cell.get());
}

Histogram MetricRegistry::GetHistogram(const std::string& name,
                                       const std::vector<double>& upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = histograms_[name];
  if (cell == nullptr) {
    std::vector<double> bounds = upper_bounds;
    if (bounds.empty()) bounds = DefaultLatencyBucketsUs();
    cell = std::make_unique<internal::HistogramCell>(std::move(bounds));
  }
  return Histogram(cell.get());
}

void MetricRegistry::SetInfo(
    const std::string& name,
    std::vector<std::pair<std::string, std::string>> labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  infos_[name] = std::move(labels);
}

std::size_t MetricRegistry::AddProbe(std::function<void()> probe) {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  const std::size_t id = next_probe_id_++;
  probes_.emplace_back(id, std::move(probe));
  return id;
}

void MetricRegistry::RemoveProbe(std::size_t id) {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  for (auto it = probes_.begin(); it != probes_.end(); ++it) {
    if (it->first == id) {
      probes_.erase(it);
      return;
    }
  }
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  // Run probes before reading cells so scrape-time gauges are fresh.
  // The probe list is copied out so a probe writing a handle can never
  // contend with a concurrent AddProbe, and no registry lock is held
  // while user code runs.
  std::vector<std::pair<std::size_t, std::function<void()>>> probes;
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    probes = probes_;
  }
  for (const auto& [id, probe] : probes) probe();
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snapshot.counters.push_back(
        {name, cell->load(std::memory_order_relaxed)});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snapshot.gauges.push_back({name, cell->load(std::memory_order_relaxed)});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.bounds = cell->bounds;
    value.counts.reserve(cell->buckets.size());
    for (const auto& bucket : cell->buckets) {
      value.counts.push_back(bucket.load(std::memory_order_relaxed));
    }
    value.count = cell->count.load(std::memory_order_relaxed);
    value.sum = cell->sum.load(std::memory_order_relaxed);
    if (value.count == 0) {
      value.min = 0.0;
      value.max = 0.0;
    } else {
      value.min = cell->min.load(std::memory_order_relaxed);
      value.max = cell->max.load(std::memory_order_relaxed);
    }
    snapshot.histograms.push_back(std::move(value));
  }
  snapshot.infos.reserve(infos_.size());
  for (const auto& [name, labels] : infos_) {
    snapshot.infos.push_back({name, labels});
  }
  return snapshot;  // std::map iteration => sorted by name, deterministic
}

Counter CounterIn(MetricRegistry* registry, const std::string& name) {
  return registry == nullptr ? Counter() : registry->GetCounter(name);
}

Gauge GaugeIn(MetricRegistry* registry, const std::string& name) {
  return registry == nullptr ? Gauge() : registry->GetGauge(name);
}

Histogram HistogramIn(MetricRegistry* registry, const std::string& name,
                      const std::vector<double>& upper_bounds) {
  return registry == nullptr ? Histogram()
                             : registry->GetHistogram(name, upper_bounds);
}

using internal::EscapeJson;
using internal::RenderDouble;

const MetricsSnapshot::CounterValue* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const CounterValue& counter : counters) {
    if (counter.name == name) return &counter;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::FindGauge(
    const std::string& name) const {
  for (const GaugeValue& gauge : gauges) {
    if (gauge.name == name) return &gauge;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramValue& histogram : histograms) {
    if (histogram.name == name) return &histogram;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::CounterOrZero(const std::string& name) const {
  const CounterValue* counter = FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

std::uint64_t MetricsSnapshot::CounterSumByPrefix(
    const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const CounterValue& counter : counters) {
    if (counter.name.compare(0, prefix.size(), prefix) == 0) {
      total += counter.value;
    }
  }
  return total;
}

double MetricsSnapshot::HistogramValue::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    double lower = b == 0 ? min : bounds[b - 1];
    double upper = b < bounds.size() ? bounds[b] : max;
    if (lower < min) lower = min;
    if (upper > max) upper = max;
    if (upper < lower) upper = lower;
    const double fraction = (rank - before) / static_cast<double>(in_bucket);
    const double value = lower + (upper - lower) * fraction;
    return value < min ? min : (value > max ? max : value);
  }
  return max;  // unreachable with consistent counts; harmless otherwise
}

namespace {

/// Shared body of ToJson (pretty) and ToJsonLine (compact): identical
/// content, indentation-only differences.
std::string RenderSnapshotJson(const MetricsSnapshot& snapshot, bool pretty) {
  const char* outer = pretty ? "\n  " : "";
  const char* inner = pretty ? "\n    " : "";
  const char* close = pretty ? "\n  }" : "}";
  std::ostringstream out;
  out << "{" << outer << "\"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << (i == 0 ? "" : ",") << inner << "\""
        << EscapeJson(snapshot.counters[i].name)
        << "\": " << snapshot.counters[i].value;
  }
  out << (snapshot.counters.empty() ? "}" : close) << "," << outer
      << "\"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out << (i == 0 ? "" : ",") << inner << "\""
        << EscapeJson(snapshot.gauges[i].name)
        << "\": " << snapshot.gauges[i].value;
  }
  out << (snapshot.gauges.empty() ? "}" : close) << "," << outer
      << "\"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const MetricsSnapshot::HistogramValue& h = snapshot.histograms[i];
    out << (i == 0 ? "" : ",") << inner << "\"" << EscapeJson(h.name)
        << "\": {\"count\": " << h.count << ", \"sum\": "
        << RenderDouble(h.sum) << ", \"min\": " << RenderDouble(h.min)
        << ", \"max\": " << RenderDouble(h.max) << ", \"mean\": "
        << RenderDouble(h.mean()) << ", \"p50\": " << RenderDouble(h.p50())
        << ", \"p90\": " << RenderDouble(h.p90()) << ", \"p99\": "
        << RenderDouble(h.p99()) << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out << ", ";
      out << "{\"le\": "
          << (b < h.bounds.size()
                  ? RenderDouble(h.bounds[b])
                  : std::string("\"+Inf\""))
          << ", \"count\": " << h.counts[b] << "}";
    }
    out << "]}";
  }
  out << (snapshot.histograms.empty() ? "}" : close);
  // Rendered only when present so snapshots from registries without
  // info metrics keep their historical byte shape.
  if (!snapshot.infos.empty()) {
    out << "," << outer << "\"infos\": {";
    for (std::size_t i = 0; i < snapshot.infos.size(); ++i) {
      const MetricsSnapshot::InfoValue& info = snapshot.infos[i];
      out << (i == 0 ? "" : ",") << inner << "\"" << EscapeJson(info.name)
          << "\": {";
      for (std::size_t l = 0; l < info.labels.size(); ++l) {
        out << (l == 0 ? "" : ", ") << "\"" << EscapeJson(info.labels[l].first)
            << "\": \"" << EscapeJson(info.labels[l].second) << "\"";
      }
      out << "}";
    }
    out << (snapshot.infos.empty() ? "}" : close);
  }
  out << (pretty ? "\n}\n" : "}");
  return out.str();
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  return RenderSnapshotJson(*this, /*pretty=*/true);
}

std::string MetricsSnapshot::ToJsonLine() const {
  return RenderSnapshotJson(*this, /*pretty=*/false);
}

std::string MetricsSnapshot::ToCsv() const {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  for (const CounterValue& counter : counters) {
    out << "counter," << counter.name << ",value," << counter.value << "\n";
  }
  for (const GaugeValue& gauge : gauges) {
    out << "gauge," << gauge.name << ",value," << gauge.value << "\n";
  }
  for (const HistogramValue& h : histograms) {
    out << "histogram," << h.name << ",count," << h.count << "\n";
    out << "histogram," << h.name << ",sum," << RenderDouble(h.sum) << "\n";
    out << "histogram," << h.name << ",mean," << RenderDouble(h.mean())
        << "\n";
    out << "histogram," << h.name << ",min," << RenderDouble(h.min) << "\n";
    out << "histogram," << h.name << ",max," << RenderDouble(h.max) << "\n";
    out << "histogram," << h.name << ",p50," << RenderDouble(h.p50()) << "\n";
    out << "histogram," << h.name << ",p90," << RenderDouble(h.p90()) << "\n";
    out << "histogram," << h.name << ",p99," << RenderDouble(h.p99()) << "\n";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out << "histogram," << h.name << ",le_"
          << (b < h.bounds.size() ? RenderDouble(h.bounds[b]) : "inf") << ","
          << h.counts[b] << "\n";
    }
  }
  for (const InfoValue& info : infos) {
    for (const auto& [key, value] : info.labels) {
      out << "info," << info.name << "," << key << "," << value << "\n";
    }
  }
  return out.str();
}

Status WriteMetricsFile(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  out << (csv ? snapshot.ToCsv() : snapshot.ToJson());
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace wum
