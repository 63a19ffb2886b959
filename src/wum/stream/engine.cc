#include "wum/stream/engine.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "wum/ckpt/checkpoint.h"
#include "wum/mine/path_miner.h"
#include "wum/obs/log.h"
#include "wum/stream/heuristic_registry.h"
#include "wum/stream/operators.h"
#include "wum/stream/threaded_driver.h"
#include "wum/topology/web_graph.h"

namespace wum {
// Named (not anonymous) so StreamEngine::Shard, which has external
// linkage, can hold members of this type without -Wsubobject-linkage.
namespace engine_internal {

/// Pass-through stage counting the records it sees. The count stays in
/// a plain worker-local field until Publish adds it to the atomic that
/// other threads read (and, when enabled, to the registry counter
/// mirroring it): the shard publishes once per drained batch, so the
/// record path pays no atomic operation here.
class CountingSink : public RecordSink {
 public:
  CountingSink(std::atomic<std::uint64_t>* counter, RecordSink* next,
               obs::Counter mirror = {})
      : counter_(counter), next_(next), mirror_(mirror) {}

  Status Accept(const LogRecord& record) override {
    ++pending_;
    return next_->Accept(record);
  }

  Status Finish() override { return next_->Finish(); }

  void Publish() {
    if (pending_ == 0) return;
    counter_->fetch_add(pending_, std::memory_order_relaxed);
    mirror_.Increment(pending_);
    pending_ = 0;
  }

 private:
  std::atomic<std::uint64_t>* counter_;
  RecordSink* next_;
  obs::Counter mirror_;
  std::uint64_t pending_ = 0;
};

}  // namespace engine_internal

EngineOptions& EngineOptions::add_filter(FilterFactory factory) {
  return add_operator([factory = std::move(factory)]() {
    return std::make_unique<FilterOperator>(factory());
  });
}

EngineOptions& EngineOptions::add_standard_filters() {
  return add_filter([] { return std::make_unique<MethodFilter>(); })
      .add_filter([] { return std::make_unique<StatusFilter>(); })
      .add_filter([] { return std::make_unique<ExtensionFilter>(); });
}

std::string EngineStatsToString(const EngineStats& stats) {
  return "records_in=" + std::to_string(stats.records_in) +
         " dropped=" + std::to_string(stats.records_dropped) +
         " sessions=" + std::to_string(stats.sessions_emitted) +
         " blocked_enqueues=" + std::to_string(stats.blocked_enqueues) +
         " queue_high_watermark=" +
         std::to_string(stats.queue_high_watermark) +
         " dead_letters=" + std::to_string(stats.dead_letters) +
         " retries=" + std::to_string(stats.retries) +
         " shed=" + std::to_string(stats.records_shed);
}

/// Funnels every shard's emissions into the caller's sink. A shard
/// hands over its whole buffer of closed sessions (see ShardEmit) and
/// the hub delivers it in order under one hold of its lock, so the lock
/// changes hands once per flush rather than once per session. Under
/// kFailFast the first failure is sticky and shared by every shard: the
/// rest of that flush, every later one and the engine's Offer all
/// return it. Under kDegrade nothing sticks here: each session stands
/// alone and the per-shard ShardEmit decides what a final failure
/// means. When a shard has a RetryingSink its attempts (and their
/// backoff waits) run per session inside the flush's hold — when the
/// shared sink is down, every shard is stalled on it anyway.
class StreamEngine::EmitHub {
 public:
  /// One buffered session. `user_key` points into the shard
  /// sessionizer's interner, whose strings never move, so buffering
  /// copies no key.
  struct Pending {
    const std::string* user_key;
    Session session;
    std::uint64_t records;  // session.requests.size() before the move
    Status status;          // the delivery outcome, set by Deliver
  };

  EmitHub(SessionSink* sink, ErrorPolicy policy)
      : sink_(sink), policy_(policy) {}

  void Deliver(std::span<Pending> pending, RetryingSink* retrying) {
    SessionSink* target =
        retrying != nullptr ? static_cast<SessionSink*>(retrying) : sink_;
    std::lock_guard<std::mutex> lock(mutex_);
    for (Pending& entry : pending) {
      if (!first_error_.ok()) {
        entry.status = first_error_;
        continue;
      }
      entry.status = target->Accept(*entry.user_key, std::move(entry.session));
      if (policy_ == ErrorPolicy::kFailFast && !entry.status.ok()) {
        first_error_ = entry.status;
      }
    }
  }

  Status first_error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_error_;
  }

 private:
  mutable std::mutex mutex_;
  SessionSink* sink_;
  ErrorPolicy policy_;
  Status first_error_;
};

/// Per-shard emission front: buffers the shard's closed sessions and
/// hands them to the hub one buffer at a time (through the shard's
/// RetryingSink when configured), keeps the delivery counters that back
/// EngineStats::sessions_emitted, and — under kDegrade — turns a session
/// the sink refused after every retry into a dead letter instead of an
/// error, so the record path above never sees emission failures. The
/// buffer is flushed when it holds kFlushSessions sessions, at the end
/// of every drained batch, and after the shard's Finish flush. Only the
/// shard's worker touches it, and the producer once the worker joined.
class StreamEngine::ShardEmit : public SessionSink {
 public:
  /// Sessions buffered before a flush that does not wait for the end of
  /// the batch; bounds the buffer when a Finish flush closes every open
  /// session at once.
  static constexpr std::size_t kFlushSessions = 256;

  ShardEmit(StreamEngine* engine, Shard* shard, obs::Counter delivered_mirror,
            obs::Counter busy_us)
      : engine_(engine),
        shard_(shard),
        delivered_mirror_(delivered_mirror),
        busy_(busy_us) {
    buffer_.reserve(kFlushSessions);
  }

  /// Buffers the session; `user_key` must outlive the next Flush (the
  /// shard sessionizer's interned keys do). Once a flush was refused
  /// (kFailFast) returns that error, which kills the shard.
  Status Accept(const std::string& user_key, Session session) override;

  /// Delivers the buffer under one hub hold and settles each session:
  /// delivered, dead-lettered (kDegrade) or refused. Returns the sticky
  /// refusal under kFailFast, OK otherwise. With metrics on, the hub
  /// wait, hold and sink time land in emit_busy_us (two clock reads per
  /// flush, the second doubling as the delivery time for latency).
  Status Flush();

  /// Sessions successfully delivered to the caller's sink.
  std::uint64_t delivered_sessions() const {
    return delivered_sessions_.load(std::memory_order_relaxed);
  }
  /// Records inside those delivered sessions.
  std::uint64_t delivered_records() const {
    return delivered_records_.load(std::memory_order_relaxed);
  }
  /// Records inside sessions dead-lettered at this stage (kEmit).
  std::uint64_t quarantined_records() const {
    return quarantined_records_.load(std::memory_order_relaxed);
  }

  /// Reinstates checkpointed delivery counters (resume path; runs before
  /// the shard's worker exists).
  void RestoreCounters(std::uint64_t sessions, std::uint64_t records,
                       std::uint64_t quarantined) {
    delivered_sessions_.store(sessions, std::memory_order_relaxed);
    delivered_records_.store(records, std::memory_order_relaxed);
    quarantined_records_.store(quarantined, std::memory_order_relaxed);
  }

 private:
  StreamEngine* engine_;
  Shard* shard_;
  obs::Counter delivered_mirror_;
  obs::BusyTimer busy_;  // emit_busy_us
  std::vector<EmitHub::Pending> buffer_;
  Status refused_;  // first refusal under kFailFast; sticky
  std::atomic<std::uint64_t> delivered_sessions_{0};
  std::atomic<std::uint64_t> delivered_records_{0};
  std::atomic<std::uint64_t> quarantined_records_{0};
};

/// One worker shard. Members are declared upstream-last so destruction
/// joins the driver before tearing down the chain it feeds.
struct StreamEngine::Shard {
  std::size_t index = 0;

  std::atomic<std::uint64_t> offered{0};    // accepted by Offer
  std::atomic<std::uint64_t> processed{0};  // entered the operator chain
  std::atomic<std::uint64_t> delivered{0};  // reached the sessionizer
  std::atomic<std::uint64_t> dead_letters{0};  // records quarantined
  std::atomic<std::uint64_t> shed{0};          // records shed by Offer

  obs::Counter records_in;  // mirrors `offered` when metrics are enabled
  obs::Counter dead_letter_mirror;
  obs::Counter shed_mirror;
  // Worker time on drained batches (the driver's clock pair per batch)
  // and on the Finish flush.
  obs::Counter busy_us;
  // Newest CLF timestamp handed to this shard's queue: the head of the
  // event time it has to catch up with (engine.watermark_lag_seconds).
  // Written by the producer once per hand-off, read by the scrape probe.
  std::atomic<std::uint64_t> newest_offered_seconds{0};

  // Accept-time stamp (NowMicros) of the batch the worker is currently
  // draining; 0 between batches and during the Finish flush, so stale
  // stamps never pollute the latency histogram. Written by the driver's
  // on_batch_start/on_batch_drained hooks (worker thread), read by
  // ShardEmit::Flush — same thread while streaming, the producer
  // thread during Finish, hence the atomic.
  std::atomic<double> batch_accept_stamp_us{0.0};
  // Ingest-to-emit latency: batch accept at the engine's front door to
  // session delivery at the emit hub.
  obs::Histogram ingest_to_emit_latency_us;

  // Flush/finish failure of this shard, for ShardHealth.
  std::mutex health_mutex;
  Status finish_error;

  // Drained batches returned by the worker for reuse: their records'
  // string capacities let the producer stage the next batch without
  // per-field reallocation (see OfferBatch). Bounded; excess batches
  // are simply destroyed. Declared before `driver` so the recycling
  // hook can never outlive the pool.
  std::mutex recycle_mutex;
  std::vector<RecordBatch> recycle;
  static constexpr std::size_t kRecycleDepth = 8;

  std::unique_ptr<RetryingSink> retrying;  // wraps the caller sink; may
                                           // be null (no set_retry)
  std::unique_ptr<ShardEmit> emit;         // -> hub -> retrying/sink
  std::unique_ptr<SessionizeSink> sessionize;  // -> emit
  std::unique_ptr<engine_internal::CountingSink> tail;  // -> sessionize
  std::unique_ptr<Pipeline> pipeline;  // operators -> tail
  std::unique_ptr<engine_internal::CountingSink> head;  // -> pipeline
  std::unique_ptr<ThreadedDriver> driver;
};

Status StreamEngine::ShardEmit::Accept(const std::string& user_key,
                                       Session session) {
  WUM_RETURN_NOT_OK(refused_);
  const auto records = static_cast<std::uint64_t>(session.requests.size());
  buffer_.push_back({&user_key, std::move(session), records, Status()});
  if (buffer_.size() < kFlushSessions) return Status::OK();
  return Flush();
}

Status StreamEngine::ShardEmit::Flush() {
  if (buffer_.empty()) return refused_;
  const double busy_start = busy_.Start();
  {
    // seq = sessions delivered by this shard before this flush.
    obs::ScopedSpan span(engine_->tracer_, "emit", shard_->index,
                         delivered_sessions_.load(std::memory_order_relaxed));
    span.set_count(buffer_.size());
    engine_->emit_->Deliver(buffer_, shard_->retrying.get());
  }
  const double delivered_at = busy_.Stop(busy_start);
  std::uint64_t sessions = 0;
  std::uint64_t records = 0;
  for (EmitHub::Pending& entry : buffer_) {
    if (entry.status.ok()) {
      ++sessions;
      records += entry.records;
      continue;
    }
    if (engine_->error_policy_ == ErrorPolicy::kFailFast) {
      if (refused_.ok()) refused_ = std::move(entry.status);
      continue;
    }
    // kDegrade: the session is lost to the sink but not to accounting —
    // quarantine a letter covering its records and keep the shard alive.
    quarantined_records_.fetch_add(entry.records, std::memory_order_relaxed);
    DeadLetter letter;
    letter.stage = DeadLetter::Stage::kEmit;
    letter.shard = shard_->index;
    letter.reason = std::move(entry.status);
    letter.detail = *entry.user_key;
    letter.records_covered = entry.records;
    engine_->Quarantine(*shard_, std::move(letter));
  }
  buffer_.clear();
  // Every session of the flush was delivered at the same instant, so
  // one weighted observation against the batch's accept stamp stands
  // for all of them. The Finish flush runs with the stamp zeroed and is
  // left out.
  const double stamp =
      shard_->batch_accept_stamp_us.load(std::memory_order_relaxed);
  if (stamp > 0.0) {
    shard_->ingest_to_emit_latency_us.Observe(delivered_at - stamp, sessions);
  }
  delivered_sessions_.fetch_add(sessions, std::memory_order_relaxed);
  delivered_records_.fetch_add(records, std::memory_order_relaxed);
  delivered_mirror_.Increment(sessions);
  return refused_;
}

Status EngineOptions::Validate() const {
  if (num_shards_ == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (queue_capacity_ == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (retry_.has_value() && retry_->max_attempts < 1) {
    return Status::InvalidArgument("retry max_attempts must be >= 1");
  }
  switch (selection_) {
    case Selection::kUnset:
      return Status::InvalidArgument(
          "choose a heuristic: use_heuristic(name) / use_duration / "
          "use_page_stay / use_navigation / use_smart_sra / use_custom");
    case Selection::kNamed: {
      const HeuristicRegistry::Entry* entry =
          HeuristicRegistry::Default().Find(heuristic_name_);
      if (entry == nullptr) {
        return Status::NotFound(
            "unknown heuristic '" + heuristic_name_ + "' (expected " +
            HeuristicRegistry::Default().NamesForUsage() + ")");
      }
      if (entry->needs_graph && graph_ == nullptr) {
        return Status::InvalidArgument("heuristic '" + heuristic_name_ +
                                       "' needs a web graph: call use_graph");
      }
      break;
    }
    case Selection::kCustom:
      if (custom_factory_ == nullptr) {
        return Status::InvalidArgument(
            "use_custom requires a sessionizer factory");
      }
      break;
  }
  if (num_pages_ == 0 && graph_ == nullptr) {
    return Status::InvalidArgument(
        "set_num_pages is required (no graph to derive it from)");
  }
  // Shedding without a dead-letter channel silently destroys records —
  // the conservation invariant (emitted + dead-lettered == accepted)
  // cannot hold, so refuse the configuration outright.
  if (offer_policy_ == OfferPolicy::kShed && dead_letters_ == nullptr) {
    return Status::InvalidArgument(
        "OfferPolicy::kShed requires a dead-letter budget: attach a "
        "DeadLetterQueue via set_dead_letters so shed records stay "
        "accounted for");
  }
  if (resume_external_replay_ && resume_dir_.empty()) {
    return Status::InvalidArgument(
        "resume_with_external_replay requires resume_from");
  }
  if (mining_.has_value()) {
    WUM_RETURN_NOT_OK(mine::ValidateMinerOptions(*mining_));
  }
  return Status::OK();
}

Result<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    EngineOptions options, SessionSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("StreamEngine requires a SessionSink");
  }
  WUM_RETURN_NOT_OK(options.Validate());
  // Resolve the heuristic up front (the constructor cannot fail). The
  // factory is invoked concurrently from shard workers; the registry's
  // factories only read the (const) graph and copied thresholds.
  UserSessionizerFactory factory;
  switch (options.selection_) {
    case EngineOptions::Selection::kUnset:
      return Status::Internal("unreachable: Validate rejects kUnset");
    case EngineOptions::Selection::kNamed: {
      HeuristicContext context;
      context.graph = options.graph_;
      context.thresholds = options.thresholds_;
      WUM_ASSIGN_OR_RETURN(factory,
                           HeuristicRegistry::Default().CreateIncremental(
                               options.heuristic_name_, context));
      break;
    }
    case EngineOptions::Selection::kCustom:
      factory = options.custom_factory_;
      break;
  }
  if (options.num_pages_ == 0 && options.graph_ != nullptr) {
    options.num_pages_ = options.graph_->num_pages();
  }
  // The mining tap slots in front of the caller's sink: the hub (and
  // any RetryingSink) emits into it, and it forwards unchanged, so the
  // hot path gains nothing but one buffered page-sequence per delivery.
  std::unique_ptr<mine::MiningSink> mining;
  if (options.mining_.has_value()) {
    mining = std::make_unique<mine::MiningSink>(
        sink, *options.mining_, options.graph_, options.metrics_);
    sink = mining.get();
  }
  // Two-phase construction: build the shard chains without workers so a
  // checkpoint restore never races a live thread, then start them.
  std::unique_ptr<StreamEngine> engine(
      new StreamEngine(std::move(options), std::move(factory), sink));
  engine->mining_ = std::move(mining);
  if (!engine->resume_dir_.empty()) {
    WUM_RETURN_NOT_OK(engine->RestoreFrom(engine->resume_dir_));
  }
  engine->StartWorkers();
  engine->RegisterScrapeProbe();
  return engine;
}

void StreamEngine::RegisterScrapeProbe() {
  if (registry_ == nullptr) return;
  // Every handle the probe writes is acquired here, up front — the
  // probe body must never touch the registry (AddProbe contract). The
  // raw shard pointers are safe: the destructor removes the probe
  // before any member dies.
  struct ShardProbe {
    Shard* shard;
    obs::Gauge watermark;
    obs::Gauge queue_depth;
  };
  std::vector<ShardProbe> shard_probes;
  shard_probes.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::string prefix =
        "engine.shard" + std::to_string(shard->index) + ".";
    shard_probes.push_back(
        {shard.get(), registry_->GetGauge(prefix + "watermark_seconds"),
         registry_->GetGauge(prefix + "queue_depth")});
  }
  mine::MiningSink* mining = mining_.get();
  obs::Gauge mining_depth = mining != nullptr
                                ? registry_->GetGauge("mining.queue_depth")
                                : obs::Gauge();
  obs::Gauge lag = registry_->GetGauge("engine.watermark_lag_seconds");
  obs::Gauge skew = registry_->GetGauge("engine.watermark_skew_seconds");
  refresh_gauges_ = [shard_probes = std::move(shard_probes), mining,
                     mining_depth, lag, skew]() mutable {
    std::uint64_t min_watermark = 0;
    std::uint64_t max_watermark = 0;
    std::uint64_t max_lag = 0;
    for (ShardProbe& probe : shard_probes) {
      const std::uint64_t watermark =
          probe.shard->sessionize->watermark_seconds();
      probe.watermark.Set(watermark);
      probe.queue_depth.Set(probe.shard->driver != nullptr
                                ? probe.shard->driver->queue_depth()
                                : 0);
      if (watermark == 0) continue;  // shard has absorbed nothing yet
      if (min_watermark == 0 || watermark < min_watermark) {
        min_watermark = watermark;
      }
      if (watermark > max_watermark) max_watermark = watermark;
      // Event time, not wall time: how far this shard's watermark trails
      // the newest event handed to it, so lag means the same on a live
      // feed and on a replayed old log, and a drained shard reads 0
      // however early its own users went quiet.
      const std::uint64_t newest =
          probe.shard->newest_offered_seconds.load(std::memory_order_relaxed);
      if (newest > watermark) max_lag = std::max(max_lag, newest - watermark);
    }
    if (mining != nullptr) mining_depth.Set(mining->queued_batches());
    // Lag is the worst shard's, so it never understates how far behind
    // its input the pipeline is; skew is the fastest-to-slowest
    // watermark spread. Both undefined until event time exists.
    if (min_watermark == 0) return;
    lag.Set(max_lag);
    skew.Set(max_watermark - min_watermark);
  };
  scrape_probe_id_ = registry_->AddProbe(refresh_gauges_);
}

StreamEngine::StreamEngine(EngineOptions options,
                           UserSessionizerFactory factory, SessionSink* sink)
    : identity_(options.identity_),
      error_policy_(options.error_policy_),
      offer_policy_(options.offer_policy_),
      dead_letters_(options.dead_letters_),
      emit_(std::make_unique<EmitHub>(sink, options.error_policy_)),
      queue_capacity_(options.queue_capacity_),
      registry_(options.metrics_),
      tracer_(obs::TracerIn(options.trace_)),
      heuristic_name_(options.selection_ ==
                              EngineOptions::Selection::kNamed
                          ? options.heuristic_name_
                          : "custom"),
      thresholds_(options.thresholds_),
      resume_dir_(options.resume_dir_),
      resume_external_replay_(options.resume_external_replay_),
      ckpt_written_(obs::CounterIn(options.metrics_,
                                   "ckpt.checkpoints_written")),
      ckpt_bytes_(obs::CounterIn(options.metrics_, "ckpt.bytes_written")),
      ckpt_resume_skipped_(
          obs::CounterIn(options.metrics_, "ckpt.records_resume_skipped")),
      ckpt_latency_us_(
          obs::HistogramIn(options.metrics_, "ckpt.write_latency_us")) {
  // With a null registry every handle below is disabled: updates are a
  // predictable branch and the latency timers never read the clock, so
  // an uninstrumented engine does the same atomic work as before the
  // observability layer existed.
  obs::MetricRegistry* registry = options.metrics_;
  shards_.reserve(options.num_shards_);
  for (std::size_t i = 0; i < options.num_shards_; ++i) {
    const std::string prefix = "engine.shard" + std::to_string(i) + ".";
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->records_in = obs::CounterIn(registry, prefix + "records_in");
    shard->dead_letter_mirror =
        obs::CounterIn(registry, prefix + "dead_letter");
    shard->shed_mirror = obs::CounterIn(registry, prefix + "shed");
    shard->ingest_to_emit_latency_us =
        obs::HistogramIn(registry, prefix + "ingest_to_emit_latency_us");
    shard->busy_us = obs::CounterIn(registry, prefix + "busy_us");
    if (options.retry_.has_value()) {
      shard->retrying = std::make_unique<RetryingSink>(
          sink, *options.retry_, obs::CounterIn(registry, prefix + "retries"),
          tracer_, i);
    }
    shard->emit = std::make_unique<ShardEmit>(
        this, shard.get(),
        obs::CounterIn(registry, prefix + "sessions_emitted"),
        obs::CounterIn(registry, prefix + "emit_busy_us"));
    SessionizeMetrics sessionize_metrics;
    sessionize_metrics.skipped_non_page_urls =
        obs::CounterIn(registry, prefix + "skipped_non_page_urls");
    sessionize_metrics.tracer = tracer_;
    sessionize_metrics.trace_shard = i;
    shard->sessionize = std::make_unique<SessionizeSink>(
        factory, shard->emit.get(), options.num_pages_, options.identity_,
        std::move(sessionize_metrics));
    shard->tail = std::make_unique<engine_internal::CountingSink>(
        &shard->delivered, shard->sessionize.get(),
        obs::CounterIn(registry, prefix + "records_delivered"));
    shard->pipeline = std::make_unique<Pipeline>(shard->tail.get());
    for (const EngineOptions::OperatorFactory& make_operator :
         options.operator_factories_) {
      shard->pipeline->Append(make_operator());
    }
    shard->head = std::make_unique<engine_internal::CountingSink>(
        &shard->processed, shard->pipeline.get(),
        obs::CounterIn(registry, prefix + "records_processed"));
    shards_.push_back(std::move(shard));
  }
}

void StreamEngine::StartWorkers() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    const std::string prefix =
        "engine.shard" + std::to_string(shard->index) + ".";
    DriverMetrics driver_metrics;
    driver_metrics.blocked_enqueues =
        obs::CounterIn(registry_, prefix + "blocked_enqueues");
    driver_metrics.queue_high_watermark =
        obs::GaugeIn(registry_, prefix + "queue_high_watermark");
    driver_metrics.busy_us = shard->busy_us;
    driver_metrics.blocked_wait_us =
        obs::CounterIn(registry_, prefix + "blocked_wait_us");
    driver_metrics.tracer = tracer_;
    driver_metrics.trace_shard = shard->index;
    DriverHooks hooks;
    Shard* recycle_shard = shard.get();
    hooks.on_batch_drained = [recycle_shard](RecordBatch&& batch) {
      // Deliver the batch's sessions while its accept stamp is live and
      // before the driver publishes the drained count, so a WaitIdle
      // barrier sees them at the sink. A kFailFast refusal sticks in the
      // hub and in the ShardEmit; the shard dies on its next session.
      (void)recycle_shard->emit->Flush();
      // The batch's record counts, published once and before the drained
      // count, so every barrier reads exact values.
      recycle_shard->head->Publish();
      recycle_shard->tail->Publish();
      recycle_shard->sessionize->PublishCounts();
      // Also the end-of-batch mark for latency stamping: emissions from
      // here on (the next batch not yet started, or the Finish flush)
      // have no meaningful accept time.
      recycle_shard->batch_accept_stamp_us.store(0.0,
                                                 std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(recycle_shard->recycle_mutex);
      if (recycle_shard->recycle.size() < Shard::kRecycleDepth) {
        recycle_shard->recycle.push_back(std::move(batch));
      }
    };
    if (registry_ != nullptr) {
      // Installing the hook is what switches on producer-side accept
      // stamping in the driver, so an uninstrumented engine never reads
      // the clock per batch.
      hooks.on_batch_start = [recycle_shard](double accept_stamp_us) {
        recycle_shard->batch_accept_stamp_us.store(accept_stamp_us,
                                                   std::memory_order_relaxed);
      };
    }
    if (error_policy_ == ErrorPolicy::kDegrade) {
      // Failure-domain hooks: record-level errors quarantine only the
      // record; shard-fatal errors quarantine it too (the dying shard
      // cannot process it) and then let the sticky error kill the shard.
      Shard* shard_ptr = shard.get();
      hooks.on_record_error = [this, shard_ptr](const LogRecord& record,
                                                const Status& status) {
        DeadLetter letter;
        letter.shard = shard_ptr->index;
        letter.reason = status;
        letter.record = record;
        if (IsShardFatal(status)) {
          letter.stage = DeadLetter::Stage::kShardDead;
          Quarantine(*shard_ptr, std::move(letter));
          return false;  // the shard dies
        }
        letter.stage = DeadLetter::Stage::kRecord;
        Quarantine(*shard_ptr, std::move(letter));
        return true;  // quarantined; the shard lives on
      };
      hooks.on_discard = [this, shard_ptr](const LogRecord& record,
                                           const Status& status) {
        DeadLetter letter;
        letter.stage = DeadLetter::Stage::kShardDead;
        letter.shard = shard_ptr->index;
        letter.reason = status;
        letter.record = record;
        Quarantine(*shard_ptr, std::move(letter));
      };
    }
    shard->driver = std::make_unique<ThreadedDriver>(
        shard->head.get(), queue_capacity_, std::move(driver_metrics),
        std::move(hooks));
  }
}

StreamEngine::~StreamEngine() {
  // The scrape probe holds raw pointers into this engine; detach it
  // before anything it reads starts dying (the registry, caller-owned,
  // usually outlives the engine).
  if (scrape_probe_id_ != 0) registry_->RemoveProbe(scrape_probe_id_);
  if (!finished_) (void)Finish();
}

std::size_t StreamEngine::ShardIndexFor(const LogRecordRef& record) const {
  if (shards_.size() == 1) return 0;
  return static_cast<std::size_t>(
      UserHashFor(record.client_ip, record.user_agent, identity_) %
      shards_.size());
}

void StreamEngine::Quarantine(Shard& shard, DeadLetter letter) {
  shard.dead_letters.fetch_add(letter.records_covered,
                               std::memory_order_relaxed);
  shard.dead_letter_mirror.Increment(letter.records_covered);
  // seq = records quarantined by this shard so far (the letter's own
  // records included). Rate limiting keeps a shard-death drain from
  // flooding the log with one warning per discarded record.
  tracer_.Instant("dead_letter", shard.index,
                  shard.dead_letters.load(std::memory_order_relaxed));
  obs::LogWarn("engine.quarantine")("shard", shard.index)(
      "stage", DeadLetterStageName(letter.stage))(
      "records", letter.records_covered)("error", letter.reason.ToString());
  if (dead_letters_ != nullptr) dead_letters_->Offer(std::move(letter));
}

Status StreamEngine::OfferBatch(std::span<const LogRecordRef> batch) {
  if (finished_) {
    return Status::FailedPrecondition("engine already finished");
  }
  while (!batch.empty() && records_seen_ < resume_skip_) {
    // Resume replay: the checkpoint this engine restored from already
    // covers this record — count it consumed and move on. The skip is
    // per record, so a batch straddling the resume offset replays only
    // its uncovered suffix.
    ++records_seen_;
    ckpt_resume_skipped_.Increment();
    batch = batch.subspan(1);
  }
  if (batch.empty()) return Status::OK();
  if (error_policy_ == ErrorPolicy::kFailFast) {
    // A sink failure in any shard stops ingest for all of them.
    WUM_RETURN_NOT_OK(emit_->first_error());
  }
  if (staging_.size() < shards_.size()) {
    staging_.resize(shards_.size());
    staging_used_.resize(shards_.size(), 0);
    staging_newest_.resize(shards_.size(), 0);
  }
  // Refill empty staging slots from the worker's recycle pool: a
  // drained batch's records keep their string capacities, so the
  // partition pass below overwrites them in place instead of
  // allocating fresh strings for every field.
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    RecordBatch& staged = staging_[shard_ptr->index];
    if (!staged.empty()) continue;  // still holds a pool
    std::lock_guard<std::mutex> lock(shard_ptr->recycle_mutex);
    if (!shard_ptr->recycle.empty()) {
      staged = std::move(shard_ptr->recycle.back());
      shard_ptr->recycle.pop_back();
    }
  }
  // Partition pass: route every ref and materialize it into its shard's
  // staging batch — the one point where the viewed bytes are copied.
  // staging_used_ counts the records staged this batch; entries beyond
  // it are stale recycled records serving as capacity pool.
  // seq = 0-based input offset of each record for the routing instant;
  // the per-shard enqueue span carries the offset of the first record
  // not yet counted (== records_seen_ at hand-off, matching the
  // single-record path at batch size 1).
  std::uint64_t seq = records_seen_;
  for (const LogRecordRef& ref : batch) {
    const std::size_t index = ShardIndexFor(ref);
    tracer_.Instant("partition", shards_[index]->index, seq++);
    staging_newest_[index] = std::max(staging_newest_[index], ref.timestamp);
    RecordBatch& staged = staging_[index];
    std::size_t& used = staging_used_[index];
    if (used < staged.size()) {
      ref.MaterializeInto(&staged[used]);
    } else {
      staged.push_back(ref.Materialize());
    }
    ++used;
  }
  // One queue hand-off per shard that received records this batch.
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    RecordBatch& staged = staging_[shard.index];
    std::size_t& used = staging_used_[shard.index];
    if (used == 0) continue;
    const std::uint64_t count = used;
    const auto newest = static_cast<std::uint64_t>(
        std::exchange(staging_newest_[shard.index], 0));
    staged.resize(used);  // drop any stale pool tail before hand-off
    Status status;
    {
      obs::ScopedSpan span(tracer_, "enqueue", shard.index, records_seen_);
      if (offer_policy_ == OfferPolicy::kShed) {
        bool accepted = false;
        status = shard.driver->TryOfferBatch(&staged, &accepted);
        if (status.ok() && !accepted) {
          // Shedding is per hand-off: the whole sub-batch is dropped
          // when the shard queue is full (at batch size 1 this is
          // exactly the historical per-record shed). The shed records
          // stay in the staging slot as capacity pool.
          shard.shed.fetch_add(count, std::memory_order_relaxed);
          shard.shed_mirror.Increment(count);
          records_seen_ += count;
          used = 0;
          continue;
        }
      } else {
        status = shard.driver->OfferBatch(&staged);
      }
    }
    if (!status.ok()) {
      if (error_policy_ == ErrorPolicy::kFailFast) {
        // The failing sub-batch's records are not counted consumed —
        // same as the historical Offer returning before ++records_seen_.
        // Staged records of untried shards are dropped with the error.
        for (RecordBatch& pending : staging_) pending.clear();
        for (std::size_t& pending_used : staging_used_) pending_used = 0;
        for (TimeSeconds& pending_newest : staging_newest_) pending_newest = 0;
        return status;
      }
      // kDegrade: the records were routed to a dead shard — quarantine
      // them and keep the producer (and the other shards) going.
      for (LogRecord& record : staged) {
        DeadLetter letter;
        letter.stage = DeadLetter::Stage::kShardDead;
        letter.shard = shard.index;
        letter.reason = status;
        letter.record = std::move(record);
        Quarantine(shard, std::move(letter));
      }
      records_seen_ += count;
      staged.clear();
      used = 0;
      continue;
    }
    shard.offered.fetch_add(count, std::memory_order_relaxed);
    shard.records_in.Increment(count);
    // Only the producer writes it, so a plain load and store keep the max.
    if (newest > shard.newest_offered_seconds.load(std::memory_order_relaxed)) {
      shard.newest_offered_seconds.store(newest, std::memory_order_relaxed);
    }
    records_seen_ += count;
    staged.clear();  // moved-from by the hand-off; normalize to empty
    used = 0;
  }
  return Status::OK();
}

Status StreamEngine::Offer(const LogRecord& record) {
  const LogRecordRef ref = ViewOf(record);
  return OfferBatch(std::span<const LogRecordRef>(&ref, 1));
}

Status StreamEngine::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("engine already finished");
  }
  finished_ = true;
  Status first_shard_error;
  for (std::unique_ptr<Shard>& shard : shards_) {
    // Null drivers only exist when Create bailed out mid-restore and is
    // tearing the half-built engine down again.
    if (shard->driver == nullptr) continue;
    Status status = shard->driver->Finish();
    // The driver's Finish flush only buffered the shard's last sessions;
    // deliver them before the accounting below reads the counters.
    obs::BusyTimer busy(shard->busy_us);
    const double busy_start = busy.Start();
    Status flushed = shard->emit->Flush();
    busy.Stop(busy_start);
    if (status.ok()) status = std::move(flushed);
    if (!status.ok()) {
      {
        std::lock_guard<std::mutex> lock(shard->health_mutex);
        shard->finish_error = status;
      }
      if (first_shard_error.ok()) first_shard_error = std::move(status);
    }
  }
  // The probe only runs when someone scrapes, and the destructor removes
  // it; refresh once here so a snapshot taken after Finish (a tool's
  // --metrics-out) reports the final watermarks, not stale zeros.
  if (refresh_gauges_) refresh_gauges_();
  if (error_policy_ == ErrorPolicy::kDegrade) {
    // A dead shard never flushed: records absorbed into its open
    // per-user session state were neither delivered nor quarantined yet.
    // Cover them with one letter per shard so the accounting invariant
    // (delivered + dead-lettered == absorbed) holds even after a kill.
    for (std::unique_ptr<Shard>& shard : shards_) {
      const std::uint64_t absorbed = shard->sessionize->records_absorbed();
      const std::uint64_t settled = shard->emit->delivered_records() +
                                    shard->emit->quarantined_records();
      if (absorbed > settled) {
        DeadLetter letter;
        letter.stage = DeadLetter::Stage::kShardDead;
        letter.shard = shard->index;
        letter.reason = shard->driver != nullptr && shard->driver->failed()
                            ? shard->driver->first_error()
                            : Status::Internal("open session state lost");
        letter.detail = "open session state lost";
        letter.records_covered = absorbed - settled;
        Quarantine(*shard, std::move(letter));
      }
    }
    // Degradation is reported through the dead-letter channel,
    // ShardHealth() and the stats — not as an engine-wide error.
    return Status::OK();
  }
  // Prefer the sink's error: it is the root cause when shards failed
  // because emission was already poisoned.
  WUM_RETURN_NOT_OK(emit_->first_error());
  return first_shard_error;
}

EngineStats StreamEngine::SnapshotShard(const Shard& shard) const {
  EngineStats stats;
  stats.records_in = shard.offered.load(std::memory_order_relaxed);
  const std::uint64_t processed =
      shard.processed.load(std::memory_order_relaxed);
  const std::uint64_t delivered =
      shard.delivered.load(std::memory_order_relaxed);
  stats.records_dropped =
      processed - delivered + shard.sessionize->skipped_non_page_urls();
  stats.sessions_emitted = shard.emit->delivered_sessions();
  if (shard.driver != nullptr) {
    stats.blocked_enqueues = shard.driver->blocked_enqueues();
    stats.queue_high_watermark = shard.driver->queue_high_watermark();
  }
  stats.dead_letters = shard.dead_letters.load(std::memory_order_relaxed);
  stats.retries = shard.retrying != nullptr ? shard.retrying->retries() : 0;
  stats.records_shed = shard.shed.load(std::memory_order_relaxed);
  return stats;
}

std::vector<EngineStats> StreamEngine::ShardStats() const {
  std::vector<EngineStats> stats;
  stats.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    stats.push_back(SnapshotShard(*shard));
  }
  return stats;
}

EngineStats StreamEngine::TotalStats() const {
  EngineStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += SnapshotShard(*shard);
  }
  return total;
}

namespace {

/// Manifest rendering of UserIdentity (part of the resume fingerprint).
std::string IdentityName(UserIdentity identity) {
  return identity == UserIdentity::kClientIpAndUserAgent ? "ip-ua" : "ip";
}

}  // namespace

Status StreamEngine::Quiesce() {
  if (finished_) {
    return Status::FailedPrecondition("engine already finished");
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    Status status = shard->driver->WaitIdle();
    if (status.ok()) continue;
    if (error_policy_ == ErrorPolicy::kFailFast) return status;
    // kDegrade: the shard is dead but WaitIdle returned on the sticky
    // error — its worker may still be discarding queued records through
    // the quarantine hook. Wait for the queue to drain completely so
    // every loss is in the dead-letter accounting.
    shard->driver->WaitDrained();
  }
  // A batch-end flush can be refused without killing its shard (the
  // shard dies on its next session), so the hub has the last word.
  if (error_policy_ == ErrorPolicy::kFailFast) return emit_->first_error();
  return Status::OK();
}

Status StreamEngine::Checkpoint(const std::string& dir,
                                const SinkStateFn& sink_state_fn) {
  namespace fs = std::filesystem;
  if (finished_) {
    return Status::FailedPrecondition("engine already finished");
  }
  if (error_policy_ == ErrorPolicy::kFailFast) {
    // A poisoned engine has nothing consistent left to snapshot; the
    // previous committed checkpoint stays the resume point.
    WUM_RETURN_NOT_OK(emit_->first_error());
  }
  obs::ScopedTimer timer(ckpt_latency_us_);
  // seq = the epoch being committed; shard 0 stands in for "whole
  // engine" (the checkpoint spans every shard).
  obs::ScopedSpan span(tracer_, "checkpoint", 0, next_epoch_);
  // Every record ever offered must be fully settled before any state is
  // read; under kDegrade a dead shard's frozen sessionizer is captured
  // as-is.
  WUM_RETURN_NOT_OK(Quiesce());
  std::string sink_state;
  if (sink_state_fn != nullptr) {
    WUM_ASSIGN_OR_RETURN(sink_state, sink_state_fn());
  }
  const std::uint64_t epoch = next_epoch_;
  const fs::path epoch_dir = fs::path(dir) / ckpt::EpochDirName(epoch);
  std::error_code ec;
  fs::remove_all(epoch_dir, ec);  // leftovers from an aborted attempt
  ec.clear();
  fs::create_directories(epoch_dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + epoch_dir.string() + ": " +
                           ec.message());
  }
  std::uint64_t bytes = 0;
  const auto add_file_size = [&bytes](const std::string& path) {
    std::error_code size_ec;
    const std::uintmax_t size = fs::file_size(path, size_ec);
    if (!size_ec) bytes += static_cast<std::uint64_t>(size);
  };
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<std::string> frames;
    ckpt::Encoder header;
    header.PutUvarint(shard->index);
    header.PutUvarint(shard->offered.load(std::memory_order_relaxed));
    header.PutUvarint(shard->processed.load(std::memory_order_relaxed));
    header.PutUvarint(shard->delivered.load(std::memory_order_relaxed));
    header.PutUvarint(shard->dead_letters.load(std::memory_order_relaxed));
    header.PutUvarint(shard->shed.load(std::memory_order_relaxed));
    header.PutUvarint(shard->emit->delivered_sessions());
    header.PutUvarint(shard->emit->delivered_records());
    header.PutUvarint(shard->emit->quarantined_records());
    frames.push_back(header.Release());
    WUM_RETURN_NOT_OK(shard->sessionize->SerializeState(&frames));
    const std::string path =
        (epoch_dir / ("shard-" + std::to_string(shard->index) + ".state"))
            .string();
    WUM_RETURN_NOT_OK(ckpt::WriteFramedFile(path, ckpt::kShardMagic, frames));
    add_file_size(path);
  }
  DeadLetterQueueSnapshot dlq;
  if (dead_letters_ != nullptr) dlq = dead_letters_->Snapshot();
  std::vector<std::string> dlq_frames;
  ckpt::Encoder dlq_header;
  dlq_header.PutUvarint(dlq.total_offered);
  dlq_header.PutUvarint(dlq.records_covered);
  dlq_header.PutUvarint(dlq.overflow_dropped);
  dlq_header.PutUvarint(dlq.letters.size());
  dlq_frames.push_back(dlq_header.Release());
  for (const DeadLetter& letter : dlq.letters) {
    ckpt::Encoder encoder;
    ckpt::EncodeDeadLetter(letter, &encoder);
    dlq_frames.push_back(encoder.Release());
  }
  const std::string dlq_path = (epoch_dir / "dead_letters.state").string();
  WUM_RETURN_NOT_OK(
      ckpt::WriteFramedFile(dlq_path, ckpt::kDeadLetterMagic, dlq_frames));
  add_file_size(dlq_path);
  if (mining_ != nullptr) {
    // The shard barrier already ran, so every delivered session is in
    // the miner once SerializeState's implicit flush drains the pending
    // batch — the mining state is exactly as wide as the shard states.
    std::vector<std::string> mining_frames;
    WUM_RETURN_NOT_OK(mining_->SerializeState(&mining_frames));
    const std::string mining_path = (epoch_dir / "mining.state").string();
    WUM_RETURN_NOT_OK(ckpt::WriteFramedFile(mining_path, ckpt::kMiningMagic,
                                            mining_frames));
    add_file_size(mining_path);
  }
  if (registry_ != nullptr) {
    const std::string metrics_path = (epoch_dir / "metrics.json").string();
    WUM_RETURN_NOT_OK(
        obs::WriteMetricsFile(registry_->Snapshot(), metrics_path));
    add_file_size(metrics_path);
  }
  ckpt::CheckpointManifest manifest;
  manifest.epoch = epoch;
  manifest.num_shards = static_cast<std::uint32_t>(shards_.size());
  // On a resumed engine records_seen_ restarts at zero while the
  // restored state already covers resume_skip_ records; a checkpoint
  // taken mid-replay must keep the larger offset or the next resume
  // would replay already-absorbed records into the restored
  // sessionizers and emit duplicate sessions. Under external replay the
  // skip is zero and the restored coverage is carried in resume_base_
  // instead, so offsets stay monotonic across restarts either way.
  manifest.records_seen = resume_base_ + std::max(records_seen_, resume_skip_);
  manifest.heuristic = heuristic_name_;
  manifest.identity = IdentityName(identity_);
  manifest.max_session_duration = thresholds_.max_session_duration;
  manifest.max_page_stay = thresholds_.max_page_stay;
  manifest.sink_state = std::move(sink_state);
  ckpt::Encoder manifest_encoder;
  ckpt::EncodeManifest(manifest, &manifest_encoder);
  const std::string manifest_path = (epoch_dir / "MANIFEST").string();
  WUM_RETURN_NOT_OK(ckpt::WriteFramedFile(manifest_path, ckpt::kManifestMagic,
                                          {manifest_encoder.Release()}));
  add_file_size(manifest_path);
  WUM_RETURN_NOT_OK(ckpt::CommitCurrent(dir, epoch));
  next_epoch_ = epoch + 1;
  ckpt::RemoveStaleEpochs(dir, epoch);
  ckpt_written_.Increment();
  ckpt_bytes_.Increment(bytes);
  obs::LogInfo("ckpt.commit")("epoch", epoch)(
      "records_seen", manifest.records_seen)("bytes", bytes);
  return Status::OK();
}

Status StreamEngine::RestoreFrom(const std::string& dir) {
  namespace fs = std::filesystem;
  WUM_ASSIGN_OR_RETURN(const std::uint64_t epoch, ckpt::ReadCurrent(dir));
  const fs::path epoch_dir = fs::path(dir) / ckpt::EpochDirName(epoch);
  WUM_ASSIGN_OR_RETURN(
      const std::vector<std::string> manifest_frames,
      ckpt::ReadFramedFile((epoch_dir / "MANIFEST").string(),
                           ckpt::kManifestMagic));
  if (manifest_frames.size() != 1) {
    return Status::ParseError("MANIFEST holds " +
                              std::to_string(manifest_frames.size()) +
                              " frames (expected 1)");
  }
  ckpt::Decoder manifest_decoder(manifest_frames[0]);
  ckpt::CheckpointManifest manifest;
  WUM_RETURN_NOT_OK(ckpt::DecodeManifest(&manifest_decoder, &manifest));
  WUM_RETURN_NOT_OK(manifest_decoder.ExpectEnd());
  // Compatibility fingerprint: resuming under a different configuration
  // would silently produce different sessions, so refuse loudly.
  if (manifest.num_shards != shards_.size()) {
    return Status::InvalidArgument(
        "checkpoint was taken with " + std::to_string(manifest.num_shards) +
        " shards but the engine is configured with " +
        std::to_string(shards_.size()));
  }
  if (manifest.heuristic != heuristic_name_) {
    return Status::InvalidArgument("checkpoint heuristic '" +
                                   manifest.heuristic +
                                   "' does not match the engine's '" +
                                   heuristic_name_ + "'");
  }
  if (manifest.identity != IdentityName(identity_)) {
    return Status::InvalidArgument("checkpoint identity '" +
                                   manifest.identity +
                                   "' does not match the engine's '" +
                                   IdentityName(identity_) + "'");
  }
  if (manifest.max_session_duration != thresholds_.max_session_duration ||
      manifest.max_page_stay != thresholds_.max_page_stay) {
    return Status::InvalidArgument(
        "checkpoint thresholds (duration=" +
        std::to_string(manifest.max_session_duration) +
        ", stay=" + std::to_string(manifest.max_page_stay) +
        ") do not match the engine's (duration=" +
        std::to_string(thresholds_.max_session_duration) +
        ", stay=" + std::to_string(thresholds_.max_page_stay) + ")");
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    const std::string path =
        (epoch_dir / ("shard-" + std::to_string(shard->index) + ".state"))
            .string();
    WUM_ASSIGN_OR_RETURN(const std::vector<std::string> frames,
                         ckpt::ReadFramedFile(path, ckpt::kShardMagic));
    if (frames.empty()) {
      return Status::ParseError(path + ": missing shard header frame");
    }
    ckpt::Decoder header(frames[0]);
    WUM_ASSIGN_OR_RETURN(const std::uint64_t index, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t offered, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t processed, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t delivered, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t dead, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t shed, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t sessions, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t session_records,
                         header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t quarantined,
                         header.GetUvarint());
    WUM_RETURN_NOT_OK(header.ExpectEnd());
    if (index != shard->index) {
      return Status::ParseError(path + ": holds state for shard " +
                                std::to_string(index));
    }
    shard->offered.store(offered, std::memory_order_relaxed);
    shard->processed.store(processed, std::memory_order_relaxed);
    shard->delivered.store(delivered, std::memory_order_relaxed);
    shard->dead_letters.store(dead, std::memory_order_relaxed);
    shard->shed.store(shed, std::memory_order_relaxed);
    shard->emit->RestoreCounters(sessions, session_records, quarantined);
    WUM_RETURN_NOT_OK(shard->sessionize->RestoreState(
        std::span<const std::string>(frames).subspan(1)));
  }
  const std::string dlq_path = (epoch_dir / "dead_letters.state").string();
  WUM_ASSIGN_OR_RETURN(const std::vector<std::string> dlq_frames,
                       ckpt::ReadFramedFile(dlq_path, ckpt::kDeadLetterMagic));
  if (dlq_frames.empty()) {
    return Status::ParseError(dlq_path + ": missing counters frame");
  }
  ckpt::Decoder dlq_header(dlq_frames[0]);
  DeadLetterQueueSnapshot dlq;
  WUM_ASSIGN_OR_RETURN(dlq.total_offered, dlq_header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(dlq.records_covered, dlq_header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(dlq.overflow_dropped, dlq_header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(const std::uint64_t retained, dlq_header.GetUvarint());
  WUM_RETURN_NOT_OK(dlq_header.ExpectEnd());
  if (retained != dlq_frames.size() - 1) {
    return Status::ParseError(
        dlq_path + ": declares " + std::to_string(retained) +
        " letters but carries " + std::to_string(dlq_frames.size() - 1));
  }
  dlq.letters.reserve(retained);
  for (std::size_t i = 1; i < dlq_frames.size(); ++i) {
    ckpt::Decoder decoder(dlq_frames[i]);
    DeadLetter letter;
    WUM_RETURN_NOT_OK(ckpt::DecodeDeadLetter(&decoder, &letter));
    WUM_RETURN_NOT_OK(decoder.ExpectEnd());
    dlq.letters.push_back(std::move(letter));
  }
  if (dead_letters_ != nullptr) dead_letters_->Restore(std::move(dlq));
  if (mining_ != nullptr) {
    const std::string mining_path = (epoch_dir / "mining.state").string();
    if (fs::exists(mining_path)) {
      WUM_ASSIGN_OR_RETURN(
          const std::vector<std::string> mining_frames,
          ckpt::ReadFramedFile(mining_path, ckpt::kMiningMagic));
      WUM_RETURN_NOT_OK(mining_->RestoreState(mining_frames));
    } else {
      // Checkpoint taken before mining was enabled: the miner starts
      // empty and converges on traffic from here on.
      obs::LogWarn("ckpt.resume")("mining_state", "absent");
    }
  }
  if (resume_external_replay_) {
    // The front end replays each producer from its own durable offset
    // (decoded out of sink_state), so every record offered from here on
    // is genuinely new: no replay skip, but the restored coverage still
    // counts toward future manifests.
    resume_base_ = manifest.records_seen;
    resume_skip_ = 0;
  } else {
    resume_skip_ = manifest.records_seen;
  }
  records_seen_ = 0;
  next_epoch_ = epoch + 1;
  resumed_sink_state_ = std::move(manifest.sink_state);
  resumed_ = true;
  obs::LogInfo("ckpt.resume")("epoch", epoch)(
      "records_seen", manifest.records_seen);
  return Status::OK();
}

std::uint64_t StreamEngine::ShardWatermarkSeconds(std::size_t shard) const {
  return shards_[shard]->sessionize->watermark_seconds();
}

std::size_t StreamEngine::ShardQueueDepth(std::size_t shard) const {
  const Shard& s = *shards_[shard];
  return s.driver != nullptr ? s.driver->queue_depth() : 0;
}

std::vector<Status> StreamEngine::ShardHealth() const {
  std::vector<Status> health;
  health.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Status status = shard->driver != nullptr ? shard->driver->first_error()
                                             : Status::OK();
    if (status.ok()) {
      std::lock_guard<std::mutex> lock(shard->health_mutex);
      status = shard->finish_error;
    }
    health.push_back(std::move(status));
  }
  return health;
}

}  // namespace wum
