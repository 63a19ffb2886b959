// Pipeline lag instrumentation under an injected clock: per-shard
// event-time watermarks (and the derived lag/skew gauges computed at
// scrape time), the ingest-to-emit latency histogram fed by batch
// accept stamps, clock reads per batch rather than per record (none at
// all for an uninstrumented engine), and watermark survival across
// checkpoint + resume.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "wum/obs/metrics.h"
#include "wum/stream/engine.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

namespace fs = std::filesystem;

// Injected clock. SetClockForTesting takes a plain function pointer,
// so the state lives in file-scope atomics. Every NowMicros() call is
// counted and advances the monotonic clock by 100us.
std::atomic<std::uint64_t> g_micros{1'000'000};
std::atomic<std::uint64_t> g_micros_calls{0};

double TestMicros() {
  g_micros_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<double>(
      g_micros.fetch_add(100, std::memory_order_relaxed));
}

class StreamLatencyTest : public testing::Test {
 protected:
  void SetUp() override { obs::internal::SetClockForTesting(&TestMicros); }
  void TearDown() override { obs::internal::SetClockForTesting(nullptr); }
};

LogRecord PageRecord(const std::string& ip, std::uint32_t page,
                     TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return record;
}

std::uint64_t GaugeValue(const obs::MetricsSnapshot& snapshot,
                         const std::string& name) {
  const obs::MetricsSnapshot::GaugeValue* gauge = snapshot.FindGauge(name);
  return gauge != nullptr ? gauge->value : 0;
}

TEST_F(StreamLatencyTest, WatermarkGaugesTrackShardMaximaLagAndSkew) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr std::size_t kShards = 2;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  // Eight users, two rounds 5000s apart: each user's event-time maximum
  // is kBase + 5000 + u, so shard watermarks differ wherever the user
  // partition does.
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t u = 0; u < 8; ++u) {
      ASSERT_TRUE((*engine)
                      ->Offer(PageRecord("10.0.0." + std::to_string(u),
                                         u % 5,
                                         kBase + round * 5000 + u))
                      .ok());
    }
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // The accessors are ground truth; the probe-driven gauges must agree.
  std::uint64_t min_nonzero = 0;
  std::uint64_t max_watermark = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    const std::uint64_t watermark = (*engine)->ShardWatermarkSeconds(k);
    if (watermark != 0 && (min_nonzero == 0 || watermark < min_nonzero)) {
      min_nonzero = watermark;
    }
    if (watermark > max_watermark) max_watermark = watermark;
  }
  // The global maximum is the latest event ever offered.
  EXPECT_EQ(max_watermark, static_cast<std::uint64_t>(kBase + 5000 + 7));
  ASSERT_NE(min_nonzero, 0u);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (std::size_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(GaugeValue(snapshot, "engine.shard" + std::to_string(k) +
                                       ".watermark_seconds"),
              (*engine)->ShardWatermarkSeconds(k));
    // Everything is drained after Finish.
    EXPECT_EQ(GaugeValue(snapshot, "engine.shard" + std::to_string(k) +
                                       ".queue_depth"),
              0u);
  }
  // Lag is event time: how far a shard's watermark trails the newest
  // record handed to it. Drained shards trail by nothing, even though
  // their watermarks differ and this input is 2008-dated (a wall clock
  // would report years).
  ASSERT_GT(max_watermark, min_nonzero);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_lag_seconds"), 0u);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_skew_seconds"),
            max_watermark - min_nonzero);
}

TEST_F(StreamLatencyTest, LagCountsOfferedEventsNoShardHasAbsorbed) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .use_smart_sra(&graph)
          .add_standard_filters()
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*engine)->Offer(PageRecord("10.5.0.1", i % 2, kBase + i)).ok());
  }
  // Offered but filtered before the sessionizer: event time moved on,
  // the shard watermark did not.
  LogRecord image = PageRecord("10.5.0.1", 0, kBase + 900);
  image.url = "/logo.GIF";
  ASSERT_TRUE((*engine)->Offer(image).ok());
  ASSERT_TRUE((*engine)->Quiesce().ok());
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(GaugeValue(snapshot, "engine.shard0.watermark_seconds"),
            static_cast<std::uint64_t>(kBase + 3));
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_lag_seconds"), 897u);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_skew_seconds"), 0u);
  ASSERT_TRUE((*engine)->Finish().ok());
}

TEST_F(StreamLatencyTest, SnapshotAfterFinishAndTeardownKeepsWatermarks) {
  // A tool's --metrics-out snapshot is taken after Finish, typically
  // once the engine (and with it the scrape probe) is gone. Finish
  // refreshes the probe gauges, so that snapshot is not stuck at the
  // last scrape — or at 0 when nobody scraped.
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr std::size_t kShards = 3;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  for (std::uint32_t u = 0; u < 12; ++u) {
    ASSERT_TRUE((*engine)
                    ->Offer(PageRecord("10.0.1." + std::to_string(u), u % 5,
                                       kBase + u))
                    .ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  std::vector<std::uint64_t> watermarks;
  for (std::size_t k = 0; k < kShards; ++k) {
    watermarks.push_back((*engine)->ShardWatermarkSeconds(k));
  }
  engine->reset();

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  std::size_t absorbing_shards = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    if (watermarks[k] == 0) continue;
    ++absorbing_shards;
    EXPECT_EQ(GaugeValue(snapshot, "engine.shard" + std::to_string(k) +
                                       ".watermark_seconds"),
              watermarks[k])
        << "shard " << k;
  }
  EXPECT_GE(absorbing_shards, 2u);
}

TEST_F(StreamLatencyTest, WatermarkZeroBeforeFirstRecordKeepsLagUnset) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok());
  // No records absorbed anywhere: per-shard watermarks are 0 and the
  // probe must not fabricate a lag against watermark 0.
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(GaugeValue(snapshot, "engine.shard0.watermark_seconds"), 0u);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_lag_seconds"), 0u);
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_skew_seconds"), 0u);
  ASSERT_TRUE((*engine)->Finish().ok());
}

TEST_F(StreamLatencyTest, IngestToEmitLatencyObservedForStreamingEmissions) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  ASSERT_TRUE(engine.ok());
  // One user walks Figure 1 twice, 5000s apart: the second walk's
  // arrival closes the first session *while streaming* (batch stamp
  // live), so at least one ingest-to-emit latency lands in the
  // histogram. The final session flushes at Finish with the stamp
  // zeroed — no stale-stamp pollution.
  constexpr PageId kWalk[] = {0, 1, 4, 3};
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*engine)
                      ->Offer(PageRecord("10.1.0.1", kWalk[i],
                                         kBase + round * 5000 + i * 30))
                      .ok());
    }
  }
  // Everything delivered by the Quiesce barrier left in a batch flush,
  // stamped; the Finish flush that follows is not.
  ASSERT_TRUE((*engine)->Quiesce().ok());
  const std::uint64_t stamped = (*engine)->TotalStats().sessions_emitted;
  ASSERT_TRUE((*engine)->Finish().ok());
  const std::uint64_t sessions = (*engine)->TotalStats().sessions_emitted;
  ASSERT_GE(sessions, 2u);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const obs::MetricsSnapshot::HistogramValue* latency =
      snapshot.FindHistogram("engine.shard0.ingest_to_emit_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count, 1u);
  // Only streaming emissions observe; Finish-flush sessions must not.
  EXPECT_LT(latency->count, sessions);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t count : latency->counts) bucketed += count;
  EXPECT_EQ(bucketed, latency->count);
  EXPECT_EQ(latency->count, stamped);
  // The injected clock advances 100us per read, so every latency is a
  // positive multiple of it: accept stamps really precede emission.
  EXPECT_GE(latency->min, 100.0);
  EXPECT_GE(latency->sum, latency->min * static_cast<double>(latency->count));
  // The mirror counter confirms the records the latencies cover.
  EXPECT_EQ(snapshot.CounterOrZero("engine.shard0.records_in"), 8u);
}

TEST_F(StreamLatencyTest, UninstrumentedEngineNeverReadsTheClock) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sink);
  ASSERT_TRUE(engine.ok());
  const std::uint64_t calls_before =
      g_micros_calls.load(std::memory_order_relaxed);
  for (std::uint32_t u = 0; u < 8; ++u) {
    ASSERT_TRUE(
        (*engine)
            ->Offer(PageRecord("10.2.0." + std::to_string(u), u % 5, kBase))
            .ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  // No registry, no tracer: the entire offer -> drain -> emit path must
  // run without a single clock read (the "disabled handles" contract
  // that makes telemetry free when switched off).
  EXPECT_EQ(g_micros_calls.load(std::memory_order_relaxed), calls_before);
}

// Clock reads an instrumented one-shard engine makes while `batches`
// OfferBatch calls of `per_batch` records each go through, plus Finish.
// Eight users take turns; `*sessions` receives the sessions delivered.
std::uint64_t ClockReadsFor(std::size_t batches, std::size_t per_batch,
                            std::uint64_t* sessions) {
  WebGraph graph = MakeFigure1Topology();
  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  constexpr TimeSeconds kBase = 1'200'000'000;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_queue_capacity(batches * per_batch)  // never blocks
          .use_smart_sra(&graph)
          .set_metrics(&registry),
      &sink);
  EXPECT_TRUE(engine.ok());
  if (!engine.ok()) return 0;
  const std::uint64_t before = g_micros_calls.load(std::memory_order_relaxed);
  std::size_t n = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<LogRecord> records;
    for (std::size_t i = 0; i < per_batch; ++i, ++n) {
      records.push_back(PageRecord("10.6.0." + std::to_string(n % 8),
                                   static_cast<std::uint32_t>(n / 8 % 5),
                                   kBase + static_cast<TimeSeconds>(n) * 40));
    }
    std::vector<LogRecordRef> refs;
    for (const LogRecord& record : records) refs.push_back(ViewOf(record));
    EXPECT_TRUE((*engine)->OfferBatch(refs).ok());
  }
  EXPECT_TRUE((*engine)->Finish().ok());
  *sessions = (*engine)->TotalStats().sessions_emitted;
  return g_micros_calls.load(std::memory_order_relaxed) - before;
}

TEST_F(StreamLatencyTest, InstrumentedEngineReadsTheClockPerBatchNotPerRecord) {
  constexpr std::size_t kBatches = 6;
  std::uint64_t few_sessions = 0;
  std::uint64_t many_sessions = 0;
  const std::uint64_t few = ClockReadsFor(kBatches, 10, &few_sessions);
  const std::uint64_t many = ClockReadsFor(kBatches, 1000, &many_sessions);
  ASSERT_GT(many_sessions, few_sessions);
  // Per batch: the accept stamp, the driver's busy pair and the emit
  // flush's pair; Finish adds a few. A flush also happens every
  // kFlushSessions sessions, so those are allowed for.
  constexpr std::uint64_t kReadsPerFlushOrBatch = 6;
  const auto bound = [](std::uint64_t sessions) {
    return kReadsPerFlushOrBatch * (kBatches + 2 + sessions / 256);
  };
  EXPECT_LE(few, bound(few_sessions));
  EXPECT_LE(many, bound(many_sessions));
  // 100x the records, not 100x the reads.
  EXPECT_LE(many, few + 2 * (many_sessions / 256 + 1));
  EXPECT_LT(many, kBatches * 1000 / 10);
}

TEST_F(StreamLatencyTest, WatermarkSurvivesCheckpointAndResume) {
  WebGraph graph = MakeFigure1Topology();
  const fs::path dir = fs::path(testing::TempDir()) / "latency_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr std::size_t kShards = 2;
  constexpr TimeSeconds kBase = 1'200'000'000;
  std::vector<std::uint64_t> saved(kShards, 0);
  {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions().set_num_shards(kShards).use_smart_sra(&graph),
        &sink);
    ASSERT_TRUE(engine.ok());
    for (std::uint32_t u = 0; u < 8; ++u) {
      ASSERT_TRUE((*engine)
                      ->Offer(PageRecord("10.3.0." + std::to_string(u),
                                         u % 5, kBase + u))
                      .ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(dir.string()).ok());
    for (std::size_t k = 0; k < kShards; ++k) {
      saved[k] = (*engine)->ShardWatermarkSeconds(k);
    }
    // Crash: the engine dies without Finish.
  }
  std::uint64_t saved_max = 0;
  for (const std::uint64_t watermark : saved) {
    if (watermark > saved_max) saved_max = watermark;
  }
  ASSERT_EQ(saved_max, static_cast<std::uint64_t>(kBase + 7));

  obs::MetricRegistry registry;
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> resumed = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .use_smart_sra(&graph)
          .set_metrics(&registry)
          .resume_from(dir.string()),
      &sink);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ASSERT_TRUE((*resumed)->resumed());
  // The restored watermarks are the checkpointed ones — lag after a
  // restart reflects real event-time progress, not a reset to zero —
  // and the scrape probe sees them before any new record arrives.
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (std::size_t k = 0; k < kShards; ++k) {
    EXPECT_EQ((*resumed)->ShardWatermarkSeconds(k), saved[k]) << "shard " << k;
    EXPECT_EQ(GaugeValue(snapshot, "engine.shard" + std::to_string(k) +
                                       ".watermark_seconds"),
              saved[k]);
  }
  // Nothing offered since the restart, so no shard trails its input.
  EXPECT_EQ(GaugeValue(snapshot, "engine.watermark_lag_seconds"), 0u);
  ASSERT_TRUE((*resumed)->Finish().ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wum
