#include "probes.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <streambuf>

#include "wum/mine/path_miner.h"
#include "wum/session/session_io.h"

namespace perfbench {
namespace {

/// Discards what is written and counts it — stands in for the journal
/// file so the sink pays the encoding but not a disk write.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t count = 0;

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++count;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    count += static_cast<std::uint64_t>(n);
    return n;
  }
};

}  // namespace

BenchSink::BenchSink(std::size_t expected_sessions, AccRegistry* accs)
    : accs_(accs) {
  // Pre-touched so the buffer is part of the set-up baseline, not of
  // the measured peak.
  emissions_.resize(expected_sessions + expected_sessions / 4 + 64);
  emissions_.clear();
}

wum::Status BenchSink::Accept(const std::string& client_ip,
                              wum::Session session) {
  const std::int64_t start = NowNs();
  const std::uint64_t user_hash = HashKey(client_ip);
  digest_.Add(user_hash, session);
  const std::int64_t first_ts =
      session.requests.empty() ? 0 : session.requests.front().timestamp;
  thread_local CountingBuf buf;
  thread_local std::ostream out(&buf);
  const std::uint64_t before = buf.count;
  WUM_RETURN_NOT_OK(wum::AppendSessionBinary(
      wum::UserSession{client_ip, std::move(session)}, &out));
  bytes_ += buf.count - before;
  const std::int64_t end = NowNs();
  emissions_.push_back(Emission{user_hash, first_ts, end});
  if (accs_ != nullptr) accs_->Mine()->sink_ns += end - start;
  return wum::Status::OK();
}

void BenchSink::Clear() {
  digest_ = Digest{};
  bytes_ = 0;
  emissions_.clear();
}

wum::Status TimedSessionizer::Timed(const wum::PageRequest* request,
                                    const EmitFn& emit) {
  ThreadAcc* acc = accs_->Mine();
  const EmitFn timed = [&emit, acc](wum::Session session) {
    const std::int64_t start = NowNs();
    wum::Status status = emit(std::move(session));
    acc->emit_ns += NowNs() - start;
    return status;
  };
  const std::int64_t start = NowNs();
  wum::Status status = request != nullptr
                           ? inner_->OnRequest(*request, timed)
                           : inner_->Flush(timed);
  acc->sessionize_ns += NowNs() - start;
  if (request != nullptr) ++acc->records;
  return status;
}

wum::Status TimedSessionizer::OnRequest(const wum::PageRequest& request,
                                        const EmitFn& emit) {
  return Timed(&request, emit);
}

wum::Status TimedSessionizer::Flush(const EmitFn& emit) {
  return Timed(nullptr, emit);
}

wum::Result<std::optional<std::string_view>> StampedSource::Next() {
  ScopedSpan span(spans_, "read", parent_);
  WUM_ASSIGN_OR_RETURN(std::optional<std::string_view> chunk, inner_->Next());
  if (chunk.has_value()) {
    served_ += chunk->size();
    log_->push_back(Delivery{served_, NowNs()});
  }
  return chunk;
}

std::int64_t ReadRssAnonBytes() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  char line[256];
  std::int64_t kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "RssAnon:", 8) == 0) {
      kb = std::strtoll(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(file);
  return kb * 1024;
}

Sampler::Sampler(std::int64_t rss_period_ns, std::int64_t engine_period_ns)
    : rss_period_ns_(rss_period_ns),
      engine_period_ns_(engine_period_ns),
      thread_([this] { Loop(); }) {}

Sampler::~Sampler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void Sampler::SampleRssLocked() {
  peak_ = std::max(peak_, ReadRssAnonBytes());
}

void Sampler::TakeBaseline() {
  // Give set-up's freed heap back first, so it is neither counted in
  // the baseline nor silently reused by the measured phase.
  malloc_trim(0);
  std::lock_guard<std::mutex> lock(mutex_);
  baseline_ = ReadRssAnonBytes();
}

void Sampler::SampleNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  SampleRssLocked();
}

void Sampler::Attach(const wum::StreamEngine* engine) {
  malloc_trim(0);
  std::lock_guard<std::mutex> lock(mutex_);
  engine_ = engine;
  engine_samples_ = EngineSamples{};
  peak_ = ReadRssAnonBytes();
}

EngineSamples Sampler::Detach() {
  std::lock_guard<std::mutex> lock(mutex_);
  SampleRssLocked();
  engine_ = nullptr;
  engine_samples_.rss_peak_above_baseline = peak_ - baseline_;
  return engine_samples_;
}

void Sampler::Loop() {
  const bool sample_engine = engine_period_ns_ > 0;
  const std::int64_t period =
      sample_engine ? std::min(rss_period_ns_, engine_period_ns_)
                    : rss_period_ns_;
  std::int64_t next_rss = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const std::int64_t now = NowNs();
    if (now >= next_rss) {
      SampleRssLocked();
      next_rss = now + rss_period_ns_;
    }
    if (sample_engine && engine_ != nullptr) {
      for (std::size_t i = 0; i < engine_->num_shards(); ++i) {
        engine_samples_.queue_depth_max =
            std::max<std::uint64_t>(engine_samples_.queue_depth_max,
                                    engine_->ShardQueueDepth(i));
      }
      if (engine_->mining() != nullptr) {
        engine_samples_.mining_backlog_max =
            std::max<std::uint64_t>(engine_samples_.mining_backlog_max,
                                    engine_->mining()->queued_batches());
      }
    }
    wake_.wait_for(lock, std::chrono::nanoseconds(period),
                   [this] { return stop_; });
  }
}

}  // namespace perfbench
