// wum::obs tracing: disabled-handle semantics (no clock reads, no
// allocation), ring-buffer wraparound with drop-oldest accounting,
// concurrent lock-free recording, Chrome trace-event export, and
// pipeline-stage coverage through a real StreamEngine run.

#include "wum/obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "wum/stream/engine.h"
#include "wum/stream/pipeline.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace obs {
namespace {

std::atomic<std::uint64_t> g_clock_calls{0};
std::atomic<std::uint64_t> g_clock_us{0};

double CountingClock() {
  g_clock_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<double>(g_clock_us.load(std::memory_order_relaxed));
}

/// Installs the counting fake clock for a test and restores the real
/// one on scope exit.
struct ClockGuard {
  ClockGuard() {
    g_clock_calls.store(0);
    g_clock_us.store(0);
    internal::SetClockForTesting(&CountingClock);
  }
  ~ClockGuard() { internal::SetClockForTesting(nullptr); }
};

TEST(TracerTest, DisabledHandleNeverReadsClockOrRecords) {
  ClockGuard clock;
  Tracer disabled;
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(TracerIn(nullptr).enabled());
  {
    ScopedSpan span(disabled, "never", 3, 9);
    disabled.Instant("never", 1, 2);
    disabled.RecordComplete("never", 0.0, 1.0, 0, 0);
  }
  // The whole point of the nullable-handle design: tracing compiled
  // into the hot path costs one branch, not a clock read.
  EXPECT_EQ(g_clock_calls.load(), 0u);
}

TEST(TracerTest, ScopedSpanRecordsRebasedTimesAndIds) {
  ClockGuard clock;
  g_clock_us.store(1000);
  TraceRecorder recorder;  // epoch = 1000us
  Tracer tracer = TracerIn(&recorder);
  EXPECT_TRUE(tracer.enabled());
  g_clock_us.store(1100);
  {
    ScopedSpan span(tracer, "work", /*shard=*/2, /*seq=*/7);
    g_clock_us.store(1350);
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_DOUBLE_EQ(events[0].ts_us, 100.0);   // rebased to the epoch
  EXPECT_DOUBLE_EQ(events[0].dur_us, 250.0);
  EXPECT_FALSE(events[0].instant);
  EXPECT_EQ(events[0].shard, 2u);
  EXPECT_EQ(events[0].seq, 7u);
  EXPECT_EQ(events[0].tid, 1u);
  EXPECT_EQ(recorder.events_recorded(), 1u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
  EXPECT_EQ(recorder.threads_registered(), 1u);
}

TEST(TracerTest, InstantEventsAreZeroDuration) {
  ClockGuard clock;
  TraceRecorder recorder;
  Tracer tracer = TracerIn(&recorder);
  g_clock_us.store(40);
  tracer.Instant("mark", 1, 5);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 0.0);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 40.0);
}

TEST(TraceRecorderTest, WraparoundDropsOldestAndCountsDrops) {
  MetricRegistry registry;
  TraceRecorder::Options options;
  options.events_per_thread = 4;
  options.metrics = &registry;
  TraceRecorder recorder(options);
  Tracer tracer = TracerIn(&recorder);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.RecordComplete("e", static_cast<double>(i), 1.0, 0, i);
  }
  EXPECT_EQ(recorder.events_recorded(), 10u);
  EXPECT_EQ(recorder.events_dropped(), 6u);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Drop-oldest: the four newest survive, in order.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);
  }
  // The drop count is itself a metric, so a truncated trace is never
  // silently mistaken for a complete one.
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOrZero("obs.trace.dropped_events"), 6u);
  EXPECT_EQ(snapshot.CounterOrZero("obs.trace.events_recorded"), 10u);
}

// N threads pushing concurrently into their private rings: no event
// lost, one buffer per thread, and (under TSan) no data race between
// the owner stores and a concurrent Snapshot.
TEST(TraceRecorderTest, ConcurrentWritersAreExactAndRaceFree) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEventsPerThread = 5000;
  TraceRecorder::Options options;
  options.events_per_thread = 256;  // force wraparound under concurrency
  TraceRecorder recorder(options);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<bool> go{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &go] {
      Tracer tracer = TracerIn(&recorder);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
        ScopedSpan span(tracer, "spin", 0, i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent export while writers are live: values may tear by design
  // (documented), but the access pattern must be TSan-clean.
  (void)recorder.Snapshot();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(recorder.events_recorded(), kThreads * kEventsPerThread);
  EXPECT_EQ(recorder.events_dropped(),
            kThreads * (kEventsPerThread - 256));
  EXPECT_EQ(recorder.threads_registered(),
            static_cast<std::size_t>(kThreads));
  EXPECT_EQ(recorder.Snapshot().size(), static_cast<std::size_t>(kThreads) * 256);
}

TEST(TraceRecorderTest, ChromeTraceJsonShapeAndFileExport) {
  ClockGuard clock;
  TraceRecorder recorder;
  Tracer tracer = TracerIn(&recorder);
  g_clock_us.store(10);
  { ScopedSpan span(tracer, "stage \"a\"", 1, 2); }
  tracer.Instant("mark", 3, 4);
  {
    ScopedSpan span(tracer, "batched", 5, 6);
    span.set_count(7);
  }
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\",\"name\":\"thread_name\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"shard\":1,\"seq\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"shard\":3,\"seq\":4}"), std::string::npos);
  // A batched span adds its item count; spans without one leave it out.
  EXPECT_NE(json.find("\"args\":{\"shard\":5,\"seq\":6,\"count\":7}"),
            std::string::npos);
  EXPECT_NE(json.find("stage \\\"a\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  const std::string path = testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  std::stringstream content;
  content << std::ifstream(path).rdbuf();
  EXPECT_EQ(content.str(), json);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, EmptyRecorderExportsValidEmptyTrace) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.ChromeTraceJson(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

// The acceptance shape of the tentpole: a sharded engine run with a
// recorder attached leaves spans for every lifecycle stage it hit, each
// tagged with shard and sequence IDs.
TEST(TraceEngineIntegrationTest, EngineRunCoversPipelineStages) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;
  TraceRecorder recorder;
  EngineOptions options;
  options.set_num_shards(2)
      .set_trace(&recorder)
      .use_smart_sra(&graph);
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(std::move(options), &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (int user = 0; user < 6; ++user) {
    for (std::uint32_t page = 1; page <= 3; ++page) {
      LogRecord record;
      record.client_ip = "10.0.0." + std::to_string(user);
      record.url = PageUrl(page);
      record.timestamp = static_cast<TimeSeconds>(page);
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "obs_trace_engine_ckpt")
          .string();
  ASSERT_TRUE((*engine)->Checkpoint(dir).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  std::filesystem::remove_all(dir);

  std::set<std::string> stages;
  std::set<std::uint64_t> shards;
  for (const TraceEvent& event : recorder.Snapshot()) {
    stages.insert(event.name);
    shards.insert(event.shard);
  }
  for (const char* stage :
       {"partition", "enqueue", "drain", "sessionize", "emit", "checkpoint"}) {
    EXPECT_TRUE(stages.contains(stage)) << "missing stage " << stage;
  }
  EXPECT_GE(shards.size(), 2u);  // both shards show up in the args
}

}  // namespace
}  // namespace obs
}  // namespace wum
