#include "wum/obs/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

namespace wum {
namespace obs {
namespace {

/// Distinguishes recorders in per-thread caches: ids are never reused,
/// so a cache entry for a destroyed recorder can never be mistaken for
/// a live one.
std::atomic<std::uint64_t> g_recorder_ids{1};

}  // namespace

/// One recording thread's private ring. Only the owning thread writes;
/// every field that export may read concurrently is atomic (relaxed
/// stores by the owner, published by the release store of `written`),
/// which is what keeps the recorder TSan-clean without a hot-path lock.
struct TraceRecorder::ThreadBuffer {
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<double> ts_us{0.0};
    std::atomic<double> dur_us{0.0};
    std::atomic<std::uint64_t> shard{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<bool> instant{false};
  };

  explicit ThreadBuffer(std::size_t capacity) : slots(capacity) {}

  std::vector<Slot> slots;
  /// Events ever pushed; slot index is written % capacity.
  std::atomic<std::uint64_t> written{0};
  std::thread::id owner;
  std::uint64_t tid = 0;  // 1-based registration order, stable for export
};

TraceRecorder::TraceRecorder(Options options)
    : capacity_(options.events_per_thread == 0 ? 1
                                               : options.events_per_thread),
      id_(g_recorder_ids.fetch_add(1, std::memory_order_relaxed)),
      epoch_us_(internal::NowMicros()),
      recorded_mirror_(CounterIn(options.metrics, "obs.trace.events_recorded")),
      dropped_mirror_(CounterIn(options.metrics, "obs.trace.dropped_events")),
      threads_mirror_(GaugeIn(options.metrics, "obs.trace.threads")) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  struct Cache {
    std::uint64_t recorder_id = 0;
    ThreadBuffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.recorder_id == id_) return cache.buffer;
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-find an existing buffer rather than trusting the cache: a thread
  // alternating between recorders keeps one buffer per recorder.
  ThreadBuffer* buffer = nullptr;
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& candidate : buffers_) {
    if (candidate->owner == self) {
      buffer = candidate.get();
      break;
    }
  }
  if (buffer == nullptr) {
    buffers_.push_back(std::make_unique<ThreadBuffer>(capacity_));
    buffer = buffers_.back().get();
    buffer->owner = self;
    buffer->tid = buffers_.size();
    threads_mirror_.Set(buffers_.size());
  }
  cache = {id_, buffer};
  return buffer;
}

void TraceRecorder::Push(const char* name, double ts_us, double dur_us,
                         bool instant, std::uint64_t shard,
                         std::uint64_t seq, std::uint64_t count) {
  ThreadBuffer* buffer = BufferForThisThread();
  const std::uint64_t index =
      buffer->written.load(std::memory_order_relaxed);
  ThreadBuffer::Slot& slot = buffer->slots[index % capacity_];
  const double rebased = ts_us - epoch_us_;
  slot.name.store(name, std::memory_order_relaxed);
  slot.ts_us.store(rebased < 0.0 ? 0.0 : rebased, std::memory_order_relaxed);
  slot.dur_us.store(dur_us < 0.0 ? 0.0 : dur_us, std::memory_order_relaxed);
  slot.shard.store(shard, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.count.store(count, std::memory_order_relaxed);
  slot.instant.store(instant, std::memory_order_relaxed);
  buffer->written.store(index + 1, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  recorded_mirror_.Increment();
  if (index >= capacity_) {  // the slot held a live event; it just died
    dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_mirror_.Increment();
  }
}

std::size_t TraceRecorder::threads_registered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffers_.size();
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      const std::uint64_t written =
          buffer->written.load(std::memory_order_acquire);
      const std::uint64_t retained =
          std::min<std::uint64_t>(written, capacity_);
      events.reserve(events.size() + retained);
      for (std::uint64_t i = written - retained; i < written; ++i) {
        const ThreadBuffer::Slot& slot = buffer->slots[i % capacity_];
        TraceEvent event;
        event.name = slot.name.load(std::memory_order_relaxed);
        if (event.name == nullptr) continue;
        event.tid = buffer->tid;
        event.ts_us = slot.ts_us.load(std::memory_order_relaxed);
        event.dur_us = slot.dur_us.load(std::memory_order_relaxed);
        event.instant = slot.instant.load(std::memory_order_relaxed);
        event.shard = slot.shard.load(std::memory_order_relaxed);
        event.seq = slot.seq.load(std::memory_order_relaxed);
        event.count = slot.count.load(std::memory_order_relaxed);
        events.push_back(event);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  return events;
}

std::string TraceRecorder::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::uint64_t max_tid = 0;
  for (const TraceEvent& event : events) {
    max_tid = std::max(max_tid, event.tid);
  }
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::uint64_t tid = 1; tid <= max_tid; ++tid) {
    out << (first ? "" : ",")
        << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"wum-thread-" << tid << "\"}}";
    first = false;
  }
  for (const TraceEvent& event : events) {
    out << (first ? "" : ",") << "{\"name\":\""
        << internal::EscapeJson(event.name) << "\",\"cat\":\"wum\",";
    if (event.instant) {
      out << "\"ph\":\"i\",\"s\":\"t\",";
    } else {
      out << "\"ph\":\"X\",\"dur\":" << internal::RenderDouble(event.dur_us)
          << ",";
    }
    out << "\"ts\":" << internal::RenderDouble(event.ts_us)
        << ",\"pid\":1,\"tid\":" << event.tid << ",\"args\":{\"shard\":"
        << event.shard << ",\"seq\":" << event.seq;
    if (event.count != 0) out << ",\"count\":" << event.count;
    out << "}}";
    first = false;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << ChromeTraceJson();
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace wum
