// End-to-end failure-domain tests for the sharded StreamEngine: a killed
// shard stays isolated under ErrorPolicy::kDegrade (and stops the world
// under kFailFast, same fault schedule), transient sink faults are
// absorbed by set_retry, exhausted retries become kEmit dead letters
// (each refused session of a batched hub flush on its own), and
// OfferPolicy::kShed sheds deterministically. Every scenario is
// driven by the deterministic fault harness — no wall clock, no races in
// what the assertions observe.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "wum/clf/user_partitioner.h"
#include "wum/stream/engine.h"
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

/// Emits every request as its own single-page session immediately.
class EmitEverySessionizer : public IncrementalUserSessionizer {
 public:
  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }
};

std::size_t ShardOf(const std::string& ip, std::size_t num_shards) {
  return static_cast<std::size_t>(
      UserHashFor(ip, "", UserIdentity::kClientIp) % num_shards);
}

/// (user, page-sequence) pairs sorted for order-insensitive comparison.
std::vector<std::pair<std::string, std::vector<PageId>>> Canonicalize(
    const CollectingSessionSink& sink) {
  std::vector<std::pair<std::string, std::vector<PageId>>> out;
  for (const auto& entry : sink.entries()) {
    out.emplace_back(entry.client_ip, entry.session.PageSequence());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t EmittedRecords(const CollectingSessionSink& sink) {
  std::uint64_t total = 0;
  for (const auto& entry : sink.entries()) {
    total += entry.session.requests.size();
  }
  return total;
}

/// Installs a FaultInjectingOperator on exactly one shard (operator
/// factories run once per shard, in shard order) and pass-through
/// schedules everywhere else.
EngineOptions::OperatorFactory FaultOnShard(std::size_t target_shard,
                                            FaultInjectingOperator::Mode mode,
                                            std::vector<std::uint64_t> at) {
  auto next_shard = std::make_shared<std::size_t>(0);
  return [next_shard, target_shard, mode,
          at = std::move(at)]() -> std::unique_ptr<RecordOperator> {
    const std::size_t shard = (*next_shard)++;
    if (shard == target_shard) {
      return std::make_unique<FaultInjectingOperator>(
          FaultSchedule::AtIndices(at), mode);
    }
    return std::make_unique<FaultInjectingOperator>(FaultSchedule::Never(),
                                                    mode);
  };
}

// The tentpole scenario: one shard is killed mid-stream by an injected
// shard-fatal fault. Under kDegrade the engine finishes OK, every other
// shard's sessions are identical to a fault-free run, and the
// dead-letter accounting covers every record the dead shard swallowed.
TEST(EngineFaultTest, KilledShardStaysIsolatedUnderDegrade) {
  constexpr std::size_t kShards = 4;
  constexpr int kUsers = 16;
  constexpr int kRounds = 5;
  WebGraph graph = MakeFigure1Topology();

  std::vector<LogRecord> records;
  for (int r = 0; r < kRounds; ++r) {
    for (int u = 0; u < kUsers; ++u) {
      records.push_back(
          PageRecord("10.0.0." + std::to_string(u), 0, r * 30));
    }
  }
  // Kill the shard that hosts user 0, on the 3rd record it processes.
  const std::size_t kill_shard = ShardOf("10.0.0.0", kShards);

  // Fault-free baseline for the expected output of the healthy shards.
  CollectingSessionSink baseline;
  {
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions().set_num_shards(kShards).use_smart_sra(&graph),
        &baseline);
    ASSERT_TRUE(engine.ok());
    for (const LogRecord& record : records) {
      ASSERT_TRUE((*engine)->Offer(record).ok());
    }
    ASSERT_TRUE((*engine)->Finish().ok());
  }

  CollectingSessionSink degraded;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .use_smart_sra(&graph)
          .add_operator(FaultOnShard(
              kill_shard, FaultInjectingOperator::Mode::kShardFatal, {2})),
      &degraded);
  ASSERT_TRUE(engine.ok());
  // Degraded mode: the producer never sees the shard die.
  for (const LogRecord& record : records) {
    ASSERT_TRUE((*engine)->Offer(record).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Exactly the injected fault killed exactly the targeted shard.
  const std::vector<Status> health = (*engine)->ShardHealth();
  ASSERT_EQ(health.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    if (i == kill_shard) {
      EXPECT_TRUE(health[i].IsInternal()) << health[i].ToString();
    } else {
      EXPECT_TRUE(health[i].ok()) << health[i].ToString();
    }
  }

  // Healthy shards produced byte-identical sessions to the fault-free
  // run; the dead shard produced none (its fault fired before anything
  // could close).
  auto expected = Canonicalize(baseline);
  expected.erase(std::remove_if(expected.begin(), expected.end(),
                                [&](const auto& entry) {
                                  return ShardOf(entry.first, kShards) ==
                                         kill_shard;
                                }),
                 expected.end());
  EXPECT_EQ(Canonicalize(degraded), expected);

  // Conservation: every accepted record is either inside an emitted
  // session or covered by a dead letter — nothing vanishes.
  EXPECT_EQ(EmittedRecords(degraded) + dead_letters.records_covered(),
            records.size());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.dead_letters, dead_letters.records_covered());
  EXPECT_EQ(dead_letters.overflow_dropped(), 0u);

  // Only the dead shard quarantined anything, and the retained letters
  // name it.
  for (const DeadLetter& letter : dead_letters.Drain()) {
    EXPECT_EQ(letter.shard, kill_shard);
    EXPECT_FALSE(letter.reason.ok());
  }
  const std::vector<EngineStats> shards = (*engine)->ShardStats();
  for (std::size_t i = 0; i < kShards; ++i) {
    if (i != kill_shard) {
      EXPECT_EQ(shards[i].dead_letters, 0u) << i;
    }
  }
}

// The same fault schedule under the default kFailFast policy is fatal to
// the whole engine — the pre-existing contract is unchanged.
TEST(EngineFaultTest, SameFaultUnderFailFastStopsTheEngine) {
  constexpr std::size_t kShards = 4;
  WebGraph graph = MakeFigure1Topology();
  const std::size_t kill_shard = ShardOf("10.0.0.0", kShards);

  CollectingSessionSink sessions;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(kShards)
          .use_smart_sra(&graph)
          .add_operator(FaultOnShard(
              kill_shard, FaultInjectingOperator::Mode::kShardFatal, {2})),
      &sessions);
  ASSERT_TRUE(engine.ok());
  Status status;
  for (int r = 0; r < 5 && status.ok(); ++r) {
    for (int u = 0; u < 16 && status.ok(); ++u) {
      status = (*engine)->Offer(PageRecord("10.0.0." + std::to_string(u), 0,
                                           r * 30));
    }
  }
  // Offer may or may not observe the death first (the producer can
  // outrun the worker), but Finish must surface the injected fault.
  if (!status.ok()) {
    EXPECT_TRUE(status.IsInternal()) << status.ToString();
    EXPECT_TRUE((*engine)->Finish().IsInternal());
  } else {
    EXPECT_TRUE((*engine)->Finish().IsInternal());
  }
}

// Operator rejections (record-level errors) quarantine only the record:
// the shard keeps sessionizing everything else, and the drained letters
// arrive in processing order with the offending records attached.
TEST(EngineFaultTest, RejectedRecordsAreDeadLetteredInOrder) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); })
          .add_operator([] {
            return std::make_unique<FaultInjectingOperator>(
                FaultSchedule::AtIndices({1, 3}),
                FaultInjectingOperator::Mode::kReject);
          }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, i * 10)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Records 0, 2, 4 sessionized; 1 and 3 quarantined, in order.
  EXPECT_EQ(sessions.entries().size(), 3u);
  std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 2u);
  EXPECT_EQ(letters[0].stage, DeadLetter::Stage::kRecord);
  ASSERT_TRUE(letters[0].record.has_value());
  EXPECT_EQ(letters[0].record->timestamp, 10);
  EXPECT_TRUE(letters[0].reason.IsInvalidArgument());
  ASSERT_TRUE(letters[1].record.has_value());
  EXPECT_EQ(letters[1].record->timestamp, 30);
  // Conservation again: 3 emitted + 2 quarantined == 5 accepted.
  EXPECT_EQ(EmittedRecords(sessions) + dead_letters.records_covered(), 5u);
  // The shard itself stays healthy: record faults are not shard faults.
  EXPECT_TRUE((*engine)->ShardHealth()[0].ok());
}

// set_retry absorbs transient sink faults: with the flaky sink failing
// on scheduled calls, every session still arrives and the retry counters
// (and the injected backoff ladder) show exactly the configured policy.
TEST(EngineFaultTest, RetryingSinkAbsorbsTransientSinkFaults) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  // Emissions are serialized through the emit hub, so FlakySink call
  // indices are global: a failure's immediate successor call is its
  // retry. Indices 0 and 5 fail; the retries (calls 1 and 6) succeed.
  FlakySink flaky(&collected, FaultSchedule::AtIndices({0, 5}));
  std::vector<std::chrono::microseconds> slept;
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::microseconds(1000);
  retry.sleep = [&slept](std::chrono::microseconds delay) {
    slept.push_back(delay);
  };
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_retry(retry)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &flaky);
  ASSERT_TRUE(engine.ok());
  for (int u = 0; u < 10; ++u) {
    ASSERT_TRUE(
        (*engine)->Offer(PageRecord("10.0.0." + std::to_string(u), 0, 0)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // All 10 sessions delivered despite 2 scheduled faults; each fault
  // cost exactly one retry with the deterministic first-step backoff.
  EXPECT_EQ(collected.entries().size(), 10u);
  EXPECT_EQ((*engine)->TotalStats().retries, 2u);
  EXPECT_EQ((*engine)->TotalStats().sessions_emitted, 10u);
  EXPECT_EQ(flaky.failures(), 2u);
  EXPECT_EQ(slept, (std::vector<std::chrono::microseconds>{
                       std::chrono::microseconds(1000),
                       std::chrono::microseconds(1000)}));
}

// When the sink stays down past max_attempts in kDegrade mode, the
// refused sessions become kEmit dead letters (covering their records)
// and the engine still finishes OK with healthy shards.
TEST(EngineFaultTest, ExhaustedRetriesBecomeEmitDeadLetters) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  FlakySink flaky(&collected, FaultSchedule::Always(),
                  Status::IoError("sink down"));
  DeadLetterQueue dead_letters;
  RetryOptions retry;
  retry.max_attempts = 2;
  retry.sleep = [](std::chrono::microseconds) {};
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(2)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_retry(retry)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &flaky);
  ASSERT_TRUE(engine.ok());
  for (int u = 0; u < 4; ++u) {
    ASSERT_TRUE(
        (*engine)->Offer(PageRecord("10.0.0." + std::to_string(u), 0, 0)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // Nothing delivered; every session quarantined at the emit stage with
  // one retry spent on each; the shards themselves never died.
  EXPECT_TRUE(collected.entries().empty());
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.sessions_emitted, 0u);
  EXPECT_EQ(total.retries, 4u);
  EXPECT_EQ(total.dead_letters, 4u);
  std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 4u);
  for (const DeadLetter& letter : letters) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kEmit);
    EXPECT_TRUE(letter.reason.IsIoError());
    EXPECT_EQ(letter.records_covered, 1u);
    EXPECT_FALSE(letter.detail.empty());  // the user key of the session
  }
  for (const Status& health : (*engine)->ShardHealth()) {
    EXPECT_TRUE(health.ok());
  }
}

/// Record refs over `records`, for offering them as one batch.
std::vector<LogRecordRef> ViewsOf(const std::vector<LogRecord>& records) {
  std::vector<LogRecordRef> refs;
  refs.reserve(records.size());
  for (const LogRecord& record : records) refs.push_back(ViewOf(record));
  return refs;
}

// One batch of 10 single-page sessions reaches the hub as one flush, and
// the sink fails on the 4th: under kFailFast the error sticks for the
// rest of that flush, so exactly 3 sessions arrive, and the error
// surfaces from the barrier, from Offer and from Finish.
TEST(EngineFaultTest, FailFastSinkErrorMidFlushStopsTheShard) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  FlakySink flaky(&collected, FaultSchedule::AtIndices({3}));
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &flaky);
  ASSERT_TRUE(engine.ok());
  std::vector<LogRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(PageRecord("u", 0, i * 10));
  const std::vector<LogRecordRef> refs = ViewsOf(records);
  ASSERT_TRUE((*engine)->OfferBatch(refs).ok());

  EXPECT_TRUE((*engine)->Quiesce().IsIoError());
  EXPECT_TRUE((*engine)->Offer(PageRecord("u", 0, 100)).IsIoError());
  EXPECT_TRUE((*engine)->Finish().IsIoError());
  ASSERT_EQ(collected.entries().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(collected.entries()[i].session.requests[0].timestamp, i * 10);
  }
  EXPECT_EQ(flaky.failures(), 1u);
  EXPECT_EQ((*engine)->TotalStats().sessions_emitted, 3u);
}

// Under kDegrade each session of a flush stands alone: the sink refuses
// calls 2, 5 and 6 of a single 10-session flush, exactly those sessions
// become kEmit letters, and nothing else is lost.
TEST(EngineFaultTest, DegradeDeadLettersEachRefusedSessionOfAFlush) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink collected;
  FlakySink flaky(&collected, FaultSchedule::AtIndices({2, 5, 6}));
  DeadLetterQueue dead_letters;
  obs::TraceRecorder recorder;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_trace(&recorder)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); }),
      &flaky);
  ASSERT_TRUE(engine.ok());
  std::vector<LogRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(PageRecord("u", 0, i * 10));
  const std::vector<LogRecordRef> refs = ViewsOf(records);
  ASSERT_TRUE((*engine)->OfferBatch(refs).ok());
  ASSERT_TRUE((*engine)->Finish().ok());

  std::vector<TimeSeconds> delivered;
  for (const auto& entry : collected.entries()) {
    delivered.push_back(entry.session.requests[0].timestamp);
  }
  EXPECT_EQ(delivered, (std::vector<TimeSeconds>{0, 10, 30, 40, 70, 80, 90}));
  std::vector<DeadLetter> letters = dead_letters.Drain();
  ASSERT_EQ(letters.size(), 3u);
  for (const DeadLetter& letter : letters) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kEmit);
    EXPECT_TRUE(letter.reason.IsIoError());
    EXPECT_EQ(letter.records_covered, 1u);
    EXPECT_EQ(letter.detail, "u");
  }
  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.sessions_emitted, 7u);
  EXPECT_EQ(total.dead_letters, 3u);
  EXPECT_EQ(EmittedRecords(collected) + dead_letters.records_covered(),
            total.records_in);
  EXPECT_TRUE((*engine)->ShardHealth()[0].ok());
  // All ten went through the hub in one flush.
  std::vector<obs::TraceEvent> flushes;
  for (const obs::TraceEvent& event : recorder.Snapshot()) {
    if (std::string(event.name) == "emit") flushes.push_back(event);
  }
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].count, 10u);
  EXPECT_EQ(flushes[0].seq, 0u);
}

/// Sessionizer that parks the worker on its first record until the test
/// releases it — the deterministic way to hold a shard queue full.
class GateSessionizer : public IncrementalUserSessionizer {
 public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;

    void WaitEntered() {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this] { return entered; });
    }
    void Release() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
      }
      cv.notify_all();
    }
  };

  explicit GateSessionizer(Gate* gate) : gate_(gate) {}

  Status OnRequest(const PageRequest& request, const EmitFn& emit) override {
    if (first_) {
      first_ = false;
      std::unique_lock<std::mutex> lock(gate_->mutex);
      gate_->entered = true;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [this] { return gate_->released; });
    }
    Session session;
    session.requests.push_back(request);
    return emit(std::move(session));
  }
  Status Flush(const EmitFn&) override { return Status::OK(); }

 private:
  Gate* gate_;
  bool first_ = true;
};

// OfferPolicy::kShed drops (and counts) records instead of blocking when
// a shard queue is full. The gate makes "full" deterministic: the worker
// is parked inside record 0, record 1 fills the capacity-1 queue, so
// records 2 and 3 must shed.
TEST(EngineFaultTest, ShedPolicyDropsAndCountsWhenQueueIsFull) {
  WebGraph graph = MakeFigure1Topology();
  GateSessionizer::Gate gate;
  CollectingSessionSink sessions;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_queue_capacity(1)
          .set_offer_policy(OfferPolicy::kShed)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom([&gate] { return std::make_unique<GateSessionizer>(&gate); }),
      &sessions);
  ASSERT_TRUE(engine.ok());

  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  gate.WaitEntered();  // the worker holds record 0; the queue is empty
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 1, 10)).ok());  // fills it
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 2, 20)).ok());  // sheds
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 3, 30)).ok());  // sheds
  gate.Release();
  ASSERT_TRUE((*engine)->Finish().ok());

  const EngineStats total = (*engine)->TotalStats();
  EXPECT_EQ(total.records_in, 2u);
  EXPECT_EQ(total.records_shed, 2u);
  EXPECT_EQ(sessions.entries().size(), 2u);
  // Shedding is load management, not a failure: nothing is dead-lettered.
  EXPECT_EQ(dead_letters.total_offered(), 0u);
}

// Away from overload the two offer policies are equivalent: identical
// sessions, zero shed.
TEST(EngineFaultTest, ShedEqualsBlockWithoutBackpressure) {
  WebGraph graph = MakeFigure1Topology();
  auto run = [&graph](OfferPolicy policy, CollectingSessionSink* sink) {
    // kShed requires a dead-letter budget since EngineOptions::Validate;
    // attach one to both runs so the only difference is the policy.
    DeadLetterQueue dead_letters;
    Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        EngineOptions()
            .set_num_shards(2)
            .set_offer_policy(policy)
            .set_dead_letters(&dead_letters)
            .use_smart_sra(&graph),
        sink);
    ASSERT_TRUE(engine.ok());
    for (int u = 0; u < 8; ++u) {
      for (int r = 0; r < 4; ++r) {
        ASSERT_TRUE((*engine)
                        ->Offer(PageRecord("10.0.0." + std::to_string(u), 0,
                                           r * 30))
                        .ok());
      }
    }
    ASSERT_TRUE((*engine)->Finish().ok());
    EXPECT_EQ((*engine)->TotalStats().records_shed, 0u);
  };
  CollectingSessionSink blocked;
  CollectingSessionSink shed;
  run(OfferPolicy::kBlock, &blocked);
  run(OfferPolicy::kShed, &shed);
  EXPECT_EQ(Canonicalize(blocked), Canonicalize(shed));
}

// Records offered to a shard that already died are themselves
// quarantined (stage kShardDead) instead of failing the producer.
TEST(EngineFaultTest, OffersToDeadShardAreQuarantined) {
  WebGraph graph = MakeFigure1Topology();
  CollectingSessionSink sessions;
  DeadLetterQueue dead_letters;
  Result<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      EngineOptions()
          .set_num_shards(1)
          .set_error_policy(ErrorPolicy::kDegrade)
          .set_dead_letters(&dead_letters)
          .set_num_pages(graph.num_pages())
          .use_custom([] { return std::make_unique<EmitEverySessionizer>(); })
          .add_operator([] {
            return std::make_unique<FaultInjectingOperator>(
                FaultSchedule::AtIndices({0}),
                FaultInjectingOperator::Mode::kShardFatal);
          }),
      &sessions);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 0, 0)).ok());
  // Wait until the (only) shard has died, then keep offering: the
  // records must be absorbed as dead letters, never surfaced as errors.
  while ((*engine)->ShardHealth()[0].ok()) {
    std::this_thread::yield();
  }
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 1, 10)).ok());
  ASSERT_TRUE((*engine)->Offer(PageRecord("u", 2, 20)).ok());
  ASSERT_TRUE((*engine)->Finish().ok());

  EXPECT_TRUE(sessions.entries().empty());
  EXPECT_EQ(dead_letters.records_covered(), 3u);
  std::vector<DeadLetter> letters = dead_letters.Drain();
  for (const DeadLetter& letter : letters) {
    EXPECT_EQ(letter.stage, DeadLetter::Stage::kShardDead);
  }
}

}  // namespace
}  // namespace wum
