// StreamEngine lifecycle and failure semantics: option validation,
// sharded stats accounting, identity-keyed sessionization, error
// propagation (a sink failure stops every shard), the batched emit
// hub's flush cap and Quiesce consistency point, and the double-Finish /
// use-after-Finish guards.

#include "wum/stream/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <set>

#include "wum/clf/log_filter.h"
#include "wum/obs/metrics.h"
#include "wum/obs/trace.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

LogRecord PageRecord(const std::string& ip, std::uint32_t page,
                     TimeSeconds timestamp) {
  LogRecord record;
  record.client_ip = ip;
  record.url = PageUrl(page);
  record.timestamp = timestamp;
  return record;
}

/// Emits every request as its own single-page session immediately, so
/// sink errors surface mid-stream instead of only at Flush.
class EmitEverySessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }
  // Stateless, so a checkpoint has nothing to write for it.
  Status SerializeState(ckpt::Encoder*) const override { return Status::OK(); }
};

/// Accepts `limit` sessions, then fails every call.
class FailAfterSink : public SessionSink {
 public:
  explicit FailAfterSink(std::uint64_t limit) : limit_(limit) {}

  Status Accept(const std::string&, Session) override {
    if (accepted_.load() >= limit_) return Status::Internal("sink full");
    accepted_.fetch_add(1);
    return Status::OK();
  }

  std::uint64_t accepted() const { return accepted_.load(); }

 private:
  std::uint64_t limit_;
  std::atomic<std::uint64_t> accepted_{0};
};

TEST(StreamEngineCreateTest, RejectsInvalidOptions) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;

  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_smart_sra(&graph),
                                   nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(EngineOptions(), &sink)
                  .status()
                  .IsInvalidArgument());  // no heuristic
  EXPECT_TRUE(StreamEngine::Create(
                  EngineOptions().use_smart_sra(&graph).set_num_shards(0),
                  &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(
                  EngineOptions().use_smart_sra(&graph).set_queue_capacity(0),
                  &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_smart_sra(nullptr),
                                   &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_custom(nullptr), &sink)
                  .status()
                  .IsInvalidArgument());
  // Time heuristics have no graph to derive the page bound from.
  EXPECT_TRUE(StreamEngine::Create(EngineOptions().use_duration(), &sink)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(StreamEngine::Create(
                  EngineOptions().use_duration().set_num_pages(10), &sink)
                  .ok());
}

TEST(StreamEngineTest, SessionizesOneUserEndToEnd) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 1, 60)).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 4, 120)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  ASSERT_EQ(sessions.entries().size(), 1u);
  EXPECT_EQ(sessions.entries()[0].client_ip, "u");
  EXPECT_EQ(sessions.entries()[0].session.PageSequence(),
            (std::vector<PageId>{0, 1, 4}));
}

TEST(StreamEngineTest, StatsAccountForEveryRecordAcrossShards) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(4).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  constexpr int kUsers = 23;
  constexpr int kRequests = 7;
  for (int r = 0; r < kRequests; ++r) {
    for (int u = 0; u < kUsers; ++u) {
      ASSERT_TRUE(
          (*engine)
              ->Offer(PageRecord("10.0.0." + std::to_string(u), 0, r * 30))
              .ok());
    }
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.records_in, static_cast<std::uint64_t>(kUsers * kRequests));
  EXPECT_EQ(total.records_dropped, 0u);
  EXPECT_EQ(total.sessions_emitted, sessions.entries().size());
  EXPECT_GT(total.queue_high_watermark, 0u);

  // Per-shard counters sum to the totals, and every user's records
  // landed on exactly one shard (records_in per shard is a multiple of
  // kRequests).
  std::uint64_t sum_in = 0;
  for (const EngineStats& shard : (*engine)->ShardStats()) {
    EXPECT_EQ(shard.records_in % kRequests, 0u);
    sum_in += shard.records_in;
  }
  EXPECT_EQ(sum_in, total.records_in);
}

TEST(StreamEngineTest, IdentitySeparatesAgentsBehindOneProxy) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(4)
          .set_identity(UserIdentity::kClientIpAndUserAgent)
          .use_smart_sra(&graph),
      &sessions);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 3; ++i) {
    LogRecord a = PageRecord("proxy", 0, i * 60);
    a.user_agent = "firefox";
    LogRecord b = PageRecord("proxy", 0, i * 60);
    b.user_agent = "safari";
    ASSERT_TRUE((*engine)->Offer(a).ok());
    ASSERT_TRUE((*engine)->Offer(b).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());
  std::set<std::string> keys;
  for (const auto& entry : sessions.entries()) keys.insert(entry.client_ip);
  EXPECT_EQ(keys, (std::set<std::string>{std::string("proxy\x1f") + "firefox",
                                         std::string("proxy\x1f") +
                                             "safari"}));
}

TEST(StreamEngineTest, FilterChainDropsAreCounted) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .use_smart_sra(&graph)
          .add_filter([] { return std::make_unique<MethodFilter>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  LogRecord post = PageRecord("u", 0, 0);
  post.method = HttpMethod::kPost;
  ASSERT_TRUE((*engine)->Offer(post).ok());
  LogRecord non_page = PageRecord("u", 0, 10);
  non_page.url = "/favicon.ico";
  ASSERT_TRUE((*engine)->Offer(non_page).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 20)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.records_in, 3u);
  EXPECT_EQ(total.records_dropped, 2u);  // POST + non-page URL
  EXPECT_EQ(sessions.entries().size(), 1u);
}

TEST(StreamEngineTest, SinkFailureStopsAllShards) {
  WebGraph graph = MakeFigure1Topology();
  FailAfterSink sink(/*limit=*/1);
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(4)
          .set_queue_capacity(4)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &sink);
  ASSERT_TRUE(engine.ok());

  // Every record emits a session; after the first one the sink fails and
  // the shared emit path poisons every shard, so Offer must start
  // rejecting (the ingest path observes the failure).
  Status offer_status;
  for (int i = 0; i < 10000 && offer_status.ok(); ++i) {
    offer_status =
        (*engine)->Offer(PageRecord("10.0.0." + std::to_string(i % 64), 0, i));
  }
  EXPECT_TRUE(offer_status.IsInternal());
  EXPECT_TRUE((*engine)->Finish().IsInternal());
  // Nothing got through after the failure, on any shard.
  EXPECT_EQ(sink.accepted(), 1u);
}

TEST(StreamEngineTest, FinishGuards) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->Finish().IsFailedPrecondition());
  EXPECT_TRUE((*engine)->Offer(PageRecord("u", 1, 60)).IsFailedPrecondition());
}

TEST(StreamEngineCreateTest, UseHeuristicResolvesThroughRegistry) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sink;
  // Every registry name works through the generic setter.
  for (const std::string name :
       {"duration", "pagestay", "navigation", "smart-sra"}) {
    EXPECT_TRUE(StreamEngine::Create(
                    EngineOptions().use_graph(&graph).use_heuristic(name),
                    &sink)
                    .ok())
        << name;
  }
  // Unknown names surface the registry's NotFound (listing valid names).
  Status unknown = StreamEngine::Create(
                       EngineOptions().use_graph(&graph).use_heuristic("h9"),
                       &sink)
                       .status();
  EXPECT_TRUE(unknown.IsNotFound());
  EXPECT_NE(unknown.message().find("smart-sra"), std::string::npos);
}

// Every engine.shard<k>.* mirror equals the EngineStats field it
// mirrors, exactly (the shard publishes its counts once per batch, before
// the batch counts as drained).
void ExpectMirrorsMatchStats(const obs::MetricRegistry& registry,
                             const StreamEngine& engine) {
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const std::vector<EngineStats> shards = engine.ShardStats();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string prefix = "engine.shard" + std::to_string(i) + ".";
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "records_in"),
              shards[i].records_in)
        << prefix;
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "sessions_emitted"),
              shards[i].sessions_emitted)
        << prefix;
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "records_processed") -
                  snapshot.CounterOrZero(prefix + "records_delivered") +
                  snapshot.CounterOrZero(prefix + "skipped_non_page_urls"),
              shards[i].records_dropped)
        << prefix;
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "dead_letter"),
              shards[i].dead_letters)
        << prefix;
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "shed"), shards[i].records_shed)
        << prefix;
    EXPECT_EQ(snapshot.CounterOrZero(prefix + "blocked_enqueues"),
              shards[i].blocked_enqueues)
        << prefix;
    const obs::MetricsSnapshot::GaugeValue* watermark =
        snapshot.FindGauge(prefix + "queue_high_watermark");
    ASSERT_NE(watermark, nullptr) << prefix;
    EXPECT_EQ(watermark->value, shards[i].queue_high_watermark) << prefix;
  }
}

// With a registry attached, the per-shard obs metrics must agree exactly
// with the legacy EngineStats snapshots — they count the same events.
TEST(StreamEngineTest, MetricsMatchEngineStats) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  obs::MetricRegistry registry;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(4)
          .set_metrics(&registry)
          .use_smart_sra(&graph)
          .add_filter([] { return std::make_unique<MethodFilter>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  for (int u = 0; u < 17; ++u) {
    const std::string ip = "10.0.0." + std::to_string(u);
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE((*engine)->Offer(PageRecord(ip, 0, r * 30)).ok());
    }
    LogRecord post = PageRecord(ip, 0, 300);
    post.method = HttpMethod::kPost;  // dropped by the filter
    ASSERT_TRUE((*engine)->Offer(post).ok());
    LogRecord non_page = PageRecord(ip, 0, 310);
    non_page.url = "/favicon.ico";  // skipped by the sessionize stage
    ASSERT_TRUE((*engine)->Offer(non_page).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  ExpectMirrorsMatchStats(registry, **engine);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const std::vector<EngineStats> shards = (*engine)->ShardStats();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string prefix = "engine.shard" + std::to_string(i) + ".";
    // Every shard drained batches, and its emit flushes are part of
    // that busy time.
    EXPECT_GT(snapshot.CounterOrZero(prefix + "busy_us"), 0u) << prefix;
    EXPECT_LE(snapshot.CounterOrZero(prefix + "emit_busy_us"),
              snapshot.CounterOrZero(prefix + "busy_us"))
        << prefix;
  }
  const EngineStats total = (*engine)->TotalStats();
  std::uint64_t records_in_total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    records_in_total += snapshot.CounterOrZero(
        "engine.shard" + std::to_string(i) + ".records_in");
  }
  EXPECT_EQ(records_in_total, total.records_in);
  EXPECT_EQ(total.records_in, 17u * 7u);
  EXPECT_EQ(total.records_dropped, 17u * 2u);
}

// Three users' records from `base` on, with an out-of-topology page
// (the sessionizer refuses it) in the middle of one OfferBatch.
std::vector<LogRecord> BatchWithFailingRecord(TimeSeconds base) {
  std::vector<LogRecord> records;
  for (int r = 0; r < 4; ++r) {
    for (int u = 0; u < 3; ++u) {
      records.push_back(PageRecord("10.9.0." + std::to_string(u), r % 2,
                                   base + r * 4000 + u));
    }
  }
  records.insert(records.begin() + 6,
                 PageRecord("10.9.0.1", 77, base + 8000));
  return records;
}

Status OfferAll(StreamEngine* engine, const std::vector<LogRecord>& records) {
  std::vector<LogRecordRef> refs;
  for (const LogRecord& record : records) refs.push_back(ViewOf(record));
  return engine->OfferBatch(refs);
}

TEST(StreamEngineTest, MirrorsExactAtQuiesceAndFinishUnderDegrade) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  obs::MetricRegistry registry;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_metrics(&registry)
          .set_error_policy(ErrorPolicy::kDegrade)
          .use_smart_sra(&graph),
      &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(OfferAll(engine->get(), BatchWithFailingRecord(0)).ok());
  ASSERT_TRUE((*engine)->Quiesce().ok());
  EXPECT_EQ((*engine)->TotalStats().dead_letters, 1u);
  EXPECT_GT((*engine)->TotalStats().sessions_emitted, 0u);
  ExpectMirrorsMatchStats(registry, **engine);
  ASSERT_TRUE(OfferAll(engine->get(), BatchWithFailingRecord(20000)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  ExpectMirrorsMatchStats(registry, **engine);
  EXPECT_EQ((*engine)->TotalStats().dead_letters, 2u);
}

TEST(StreamEngineTest, MirrorsExactAfterFinishWhenARecordKillsTheShard) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  obs::MetricRegistry registry;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(1).set_metrics(&registry).use_smart_sra(
          &graph),
      &sessions);
  ASSERT_TRUE(engine.ok());
  // kFailFast: the refused record ends the shard mid-batch; the rest of
  // the batch is discarded, and the counts of the records before it are
  // still published with the batch.
  ASSERT_TRUE(OfferAll(engine->get(), BatchWithFailingRecord(0)).ok());
  EXPECT_TRUE((*engine)->Finish().IsInvalidArgument());
  ExpectMirrorsMatchStats(registry, **engine);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOrZero("engine.shard0.records_processed"), 7u);
  EXPECT_EQ(snapshot.CounterOrZero("engine.shard0.records_delivered"), 7u);
}

// Without set_metrics the engine registers nothing anywhere and the
// legacy stats still work — the disabled mode of the tentpole.
TEST(StreamEngineTest, NoRegistryMeansNoMetricsButStatsStillWork) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_EQ((*engine)->TotalStats().records_in, 1u);
}

TEST(StreamEngineTest, DestructorFinishesWithoutExplicitFinish) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  {
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions().set_num_shards(2).use_smart_sra(&graph), &sessions);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
    // No Finish(): the destructor must drain, flush and join cleanly.
  }
  EXPECT_EQ(sessions.entries().size(), 1u);
}

// One batch closing more sessions than a shard buffers (256) is
// delivered in several hub flushes: every session arrives, each user's
// in timestamp order, and no flush carries more than the cap.
TEST(StreamEngineTest, BatchClosingMoreThanTheFlushCapDeliversAllInOrder) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  obs::TraceRecorder recorder;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_trace(&recorder)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  constexpr int kUsers = 4;
  constexpr int kPerUser = 150;
  std::vector<LogRecord> records;
  for (int i = 0; i < kPerUser; ++i) {
    for (int u = 0; u < kUsers; ++u) {
      records.push_back(PageRecord("10.0.0." + std::to_string(u), 0, i));
    }
  }
  std::vector<LogRecordRef> refs;
  for (const LogRecord& record : records) refs.push_back(ViewOf(record));
  ASSERT_TRUE((*engine)->OfferBatch(refs).ok());
  ASSERT_TRUE((*engine)->Finish().ok());

  ASSERT_EQ(sessions.entries().size(), records.size());
  std::map<std::string, std::vector<TimeSeconds>> per_user;
  for (const auto& entry : sessions.entries()) {
    per_user[entry.client_ip].push_back(entry.session.requests[0].timestamp);
  }
  ASSERT_EQ(per_user.size(), static_cast<std::size_t>(kUsers));
  for (const auto& [user, stamps] : per_user) {
    ASSERT_EQ(stamps.size(), static_cast<std::size_t>(kPerUser)) << user;
    for (int i = 0; i < kPerUser; ++i) EXPECT_EQ(stamps[i], i) << user;
  }
  std::uint64_t flushed = 0;
  std::size_t flushes = 0;
  for (const obs::TraceEvent& event : recorder.Snapshot()) {
    if (std::string(event.name) != "emit") continue;
    EXPECT_LE(event.count, 256u);
    EXPECT_EQ(event.seq, flushed);  // sessions delivered before it
    flushed += event.count;
    ++flushes;
  }
  EXPECT_EQ(flushed, records.size());
  EXPECT_EQ(flushes, 3u);  // 256 + 256 + 88
}

// Quiesce (and Checkpoint, which takes it) is a consistency point for
// the sink: once it returns, every session the offered records closed
// has been delivered, without waiting for Finish.
TEST(StreamEngineTest, SinkHoldsEveryClosedSessionAfterCheckpoint) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "stream_engine_quiesce_ckpt")
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  ASSERT_TRUE((*engine)->Checkpoint(dir).ok());
  ASSERT_EQ(sessions.entries().size(), 1u);
  EXPECT_EQ(sessions.entries()[0].client_ip, "u");
  EXPECT_EQ((*engine)->TotalStats().sessions_emitted, 1u);
  ASSERT_TRUE((*engine)->Offer(PageRecord("v", 1, 0)).ok());
  ASSERT_TRUE((*engine)->Quiesce().ok());
  EXPECT_EQ(sessions.entries().size(), 2u);
  ASSERT_TRUE((*engine)->Finish().ok());
  EXPECT_TRUE((*engine)->Quiesce().IsFailedPrecondition());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wum
