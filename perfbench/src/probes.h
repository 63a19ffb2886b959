// The benchmark's probes around websra's public seams: its own
// SessionSink, a delegating IncrementalUserSessionizer, a ByteSource
// decorator, and the sleeping sampler thread. None of them reaches into
// src/; each times calls into a module from outside.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "wum/ingest/byte_source.h"
#include "wum/stream/engine.h"
#include "wum/stream/incremental_sessionizer.h"

namespace perfbench {

/// One delivered session, kept for the latency computation after the
/// iteration.
struct Emission {
  std::uint64_t user_hash = 0;
  std::int64_t first_ts = 0;
  std::int64_t accept_ns = 0;
};

/// The sink every front door emits into. It digests each session for
/// the correctness gate, encodes it the way the session journal does
/// (into a byte counter, so no disk write), and stamps its arrival. The
/// engine serializes Accept calls under its emit hub, so no locking.
class BenchSink final : public wum::SessionSink {
 public:
  /// `accs` non-null times every Accept into the caller thread's
  /// ThreadAcc.
  BenchSink(std::size_t expected_sessions, AccRegistry* accs);

  wum::Status Accept(const std::string& client_ip,
                     wum::Session session) override;

  const Digest& digest() const { return digest_; }
  std::uint64_t bytes() const { return bytes_; }
  const std::vector<Emission>& emissions() const { return emissions_; }
  /// Forgets everything delivered so far (between iterations); keeps
  /// the emission buffer's capacity.
  void Clear();

 private:
  AccRegistry* accs_;
  Digest digest_;
  std::uint64_t bytes_ = 0;
  std::vector<Emission> emissions_;
};

/// Delegating sessionizer for traced runs: times OnRequest/Flush into
/// the worker's ThreadAcc and, separately, the EmitFn it was handed.
/// Checkpoints pass straight through.
class TimedSessionizer final : public wum::IncrementalUserSessionizer {
 public:
  TimedSessionizer(std::unique_ptr<wum::IncrementalUserSessionizer> inner,
                   AccRegistry* accs)
      : inner_(std::move(inner)), accs_(accs) {}

  wum::Status OnRequest(const wum::PageRequest& request,
                        const EmitFn& emit) override;
  wum::Status Flush(const EmitFn& emit) override;
  wum::Status SerializeState(wum::ckpt::Encoder* encoder) const override {
    return inner_->SerializeState(encoder);
  }
  wum::Status RestoreState(wum::ckpt::Decoder* decoder) override {
    return inner_->RestoreState(decoder);
  }

 private:
  wum::Status Timed(const wum::PageRequest* request, const EmitFn& emit);

  std::unique_ptr<wum::IncrementalUserSessionizer> inner_;
  AccRegistry* accs_;
};

/// When a stream's bytes became available to the system: byte offset
/// reached (exclusive) and the time it was reached, per stream.
struct Delivery {
  std::uint64_t end = 0;
  std::int64_t at_ns = 0;
};

/// ByteSource decorator on the file path: stamps each chunk Next()
/// serves (the records' "due" time on a flat-out replay) and, when
/// `spans` is set, records the read as a span.
class StampedSource final : public wum::ingest::ByteSource {
 public:
  StampedSource(wum::ingest::ByteSource* inner, std::vector<Delivery>* log,
                SpanLog* spans, int parent)
      : inner_(inner), log_(log), spans_(spans), parent_(parent) {}

  wum::Result<std::optional<std::string_view>> Next() override;
  bool exhausted() const override { return inner_->exhausted(); }

 private:
  wum::ingest::ByteSource* inner_;
  std::vector<Delivery>* log_;
  SpanLog* spans_;
  int parent_;
  std::uint64_t served_ = 0;
};

/// Peak-of-samples gauges the sampler keeps for the attached engine.
struct EngineSamples {
  /// Peak RssAnon while attached, minus the after-set-up baseline.
  std::int64_t rss_peak_above_baseline = 0;
  std::uint64_t queue_depth_max = 0;
  std::uint64_t mining_backlog_max = 0;
};

/// Sleeping sampler thread. Every tick it reads RssAnon from
/// /proc/self/status; with an engine attached it also reads every
/// ShardQueueDepth and MiningSink::queued_batches.
class Sampler {
 public:
  Sampler(std::int64_t rss_period_ns, std::int64_t engine_period_ns);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Sets the baseline to the current RssAnon (call after set-up) and
  /// clears the peak.
  void TakeBaseline();
  /// One immediate RSS sample (before a Finish, where the peak sits).
  void SampleNow();

  /// Attach before the first record is offered, detach before the
  /// engine is destroyed; Detach returns what was sampled meanwhile.
  /// Attach first returns freed heap to the system, so every iteration
  /// starts from the same footprint.
  void Attach(const wum::StreamEngine* engine);
  EngineSamples Detach();

 private:
  void Loop();
  void SampleRssLocked();

  const std::int64_t rss_period_ns_;
  const std::int64_t engine_period_ns_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::int64_t baseline_ = 0;
  std::int64_t peak_ = 0;  // since Attach
  const wum::StreamEngine* engine_ = nullptr;
  EngineSamples engine_samples_;
  std::thread thread_;  // last: started after every member it reads
};

/// RssAnon of this process in bytes (0 if unreadable).
std::int64_t ReadRssAnonBytes();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
