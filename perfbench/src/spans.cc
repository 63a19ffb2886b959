#include "spans.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || span.parent >= static_cast<int>(spans.size())) {
      continue;
    }
    const Span& parent = spans[span.parent];
    const std::int64_t start = std::max(span.start_ns, parent.start_ns);
    const std::int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) children[span.parent].emplace_back(start, end);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> SelfTimeByNameNs(
    const std::vector<Span>& spans, std::size_t first) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = first; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
  }
  return by_name;
}

int SpanLog::Begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.thread = ThreadNumber();
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_ns = now;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::string SpanLog::ChromeTraceJson() const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::string json = "{\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"",
                  i == 0 ? "" : ",\n", span.thread,
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    json += buffer;
    json += span.name;
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"args\":{\"id\":%zu,\"parent\":%d,\"self_us\":%.3f}}",
                  i, span.parent, static_cast<double>(self[i]) / 1e3);
    json += buffer;
  }
  json += "]}\n";
  return json;
}

ThreadAcc* AccRegistry::Mine() {
  struct Slot {
    const AccRegistry* owner = nullptr;
    std::uint64_t generation = 0;
    ThreadAcc* acc = nullptr;
  };
  thread_local Slot slot;
  // Per-record fast path: no lock once this thread has its accumulator.
  if (slot.owner == this &&
      slot.generation == generation_.load(std::memory_order_acquire)) {
    return slot.acc;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  accs_.push_back(std::make_unique<ThreadAcc>());
  slot = Slot{this, generation_.load(std::memory_order_relaxed),
              accs_.back().get()};
  return slot.acc;
}

std::vector<ThreadAcc> AccRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadAcc> out;
  for (const auto& acc : accs_) out.push_back(*acc);
  return out;
}

void AccRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  generation_.fetch_add(1, std::memory_order_release);
  accs_.clear();
}

}  // namespace perfbench
